package dise

import (
	"testing"

	"dise/internal/artifacts"
	"dise/internal/cfg"
	"dise/internal/diff"
	"dise/internal/symexec"
)

// TestAffectedLocIsReachableAllocatesNothing gates the per-successor cost of
// the pruner: the reachability test and its resets run on the runner's
// bitsets and scratch mask, so no call allocates, whatever node it starts
// from.
func TestAffectedLocIsReachableAllocatesNothing(t *testing.T) {
	art, _ := artifacts.ByName("OAE")
	v := art.Versions[0]
	engine, err := symexec.New(art.ProgramFor(v), art.Proc, symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseGraph := cfg.Build(art.BaseProgram().Proc(art.Proc))
	d := diff.Procedures(art.BaseProgram().Proc(art.Proc), engine.Proc)
	affected := ComputeAffected(baseGraph, engine.Graph, d, Options{})
	if affected.Size() == 0 {
		t.Fatalf("OAE %s: no affected nodes", v.Name)
	}
	r := NewRunner(engine, affected)
	states := make([]*symexec.State, len(engine.Graph.Nodes))
	for i, n := range engine.Graph.Nodes {
		states[i] = &symexec.State{Node: n}
	}
	begin := states[engine.Graph.Begin.ID]
	reachable := 0
	allocs := testing.AllocsPerRun(20, func() {
		for _, s := range states {
			// Explore every node, then put s back: the test from the begin
			// node reaches s and resets the explored affected nodes s
			// reaches.
			for _, n := range engine.Graph.Nodes {
				r.updateExploredSet(n.ID)
			}
			r.resetUnExploredSet(s.Node.ID)
			r.affectedLocIsReachable(begin)
			if r.affectedLocIsReachable(s) {
				reachable++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("affectedLocIsReachable allocates %.1f times per %d calls, want 0", allocs, len(states))
	}
	if reachable == 0 || r.PruneStats.Resets == 0 {
		t.Errorf("the gate exercised nothing: %d reachable answers, %d resets", reachable, r.PruneStats.Resets)
	}
}
