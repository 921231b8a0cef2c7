package dise

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/cfg"
	"dise/internal/diff"
	"dise/internal/symexec"
)

// This file pins the scheduler refactor against the pre-refactor directed
// search: oracleRunner is a transliteration of the recursive DiSE procedure
// (Fig. 6) exactly as it was implemented before pruning moved into a
// symexec.Pruner hook — an outer search loop driving Engine.Step directly.
// The reworked Runner must reproduce it byte for byte (paths, order,
// pruning counters) at the default DFS strategy, and — because pruning
// decisions are committed in depth-first order at every strategy and
// parallelism level — under every other scheduler configuration too.

type oracleRunner struct {
	engine    *symexec.Engine
	affected  *Affected
	exCond    map[int]bool
	exWrite   map[int]bool
	unExCond  map[int]bool
	unExWrite map[int]bool
	pruned    int
}

func newOracle(engine *symexec.Engine, affected *Affected) *oracleRunner {
	o := &oracleRunner{
		engine:    engine,
		affected:  affected,
		exCond:    map[int]bool{},
		exWrite:   map[int]bool{},
		unExCond:  map[int]bool{},
		unExWrite: map[int]bool{},
	}
	for id := range affected.ACN {
		o.unExCond[id] = true
	}
	for id := range affected.AWN {
		o.unExWrite[id] = true
	}
	return o
}

func (o *oracleRunner) run() *symexec.Summary {
	summary := &symexec.Summary{}
	o.dise(o.engine.InitialState(), summary)
	return summary
}

func (o *oracleRunner) dise(s *symexec.State, summary *symexec.Summary) {
	if o.engine.InterruptErr() != nil || o.engine.BudgetExhausted() {
		return
	}
	if s.Depth > o.engine.DepthBound() {
		return
	}
	if s.Node.Kind == cfg.KindError {
		o.collect(s, summary)
		return
	}
	o.updateExploredSet(s.Node.ID)
	step := o.engine.Step(s)
	if o.engine.InterruptErr() != nil {
		return
	}
	for _, t := range step.InfeasibleTargets {
		o.updateExploredSet(t.ID)
	}
	explored := false
	for _, si := range step.Feasible {
		switch {
		case si.Node.Kind == cfg.KindError:
			explored = true
			o.collect(si, summary)
		case o.reachable(si):
			explored = true
			o.dise(si, summary)
		default:
			o.pruned++
		}
	}
	if !explored {
		if !o.engine.Terminal(s) && s.Depth >= o.engine.DepthBound() {
			return
		}
		o.collect(s, summary)
	}
}

func (o *oracleRunner) collect(s *symexec.State, summary *symexec.Summary) {
	trace := s.Trace
	switch s.Node.Kind {
	case cfg.KindCond, cfg.KindWrite, cfg.KindNop:
		trace = trace.Append(s.Node.ID)
	}
	affected := false
	for _, id := range trace.Slice() {
		if o.affected.Contains(id) {
			affected = true
			break
		}
	}
	if !affected {
		return
	}
	adjusted := *s
	adjusted.Trace = trace
	summary.Paths = append(summary.Paths, o.engine.Collect(&adjusted))
}

func (o *oracleRunner) updateExploredSet(id int) {
	if o.unExWrite[id] {
		delete(o.unExWrite, id)
		o.exWrite[id] = true
	}
	if o.unExCond[id] {
		delete(o.unExCond, id)
		o.exCond[id] = true
	}
}

func (o *oracleRunner) resetUnExploredSet(id int) {
	if o.exWrite[id] {
		delete(o.exWrite, id)
		o.unExWrite[id] = true
	}
	if o.exCond[id] {
		delete(o.exCond, id)
		o.unExCond[id] = true
	}
}

func (o *oracleRunner) reachable(si *symexec.State) bool {
	g := o.engine.Graph
	ni := si.Node
	if g.IsLoopEntryNode(ni) {
		for _, m := range g.GetSCC(ni) {
			o.resetUnExploredSet(m.ID)
		}
	}
	unExplored := snapshot(o.unExWrite, o.unExCond)
	explored := snapshot(o.exWrite, o.exCond)
	isReachable := false
	for _, nj := range unExplored {
		if !g.Reaches(ni.ID, nj) {
			continue
		}
		isReachable = true
		for _, nk := range explored {
			if g.Reaches(nj, nk) {
				o.resetUnExploredSet(nk)
			}
		}
	}
	return isReachable
}

// snapshot lists the members of the sets, as the figure's lines 16–17 copy
// them before the reset loop mutates the sets.
func snapshot(sets ...map[int]bool) []int {
	var out []int
	for _, set := range sets {
		for id := range set {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// oraclePaths runs the pre-refactor recursion on one artifact version.
func oraclePaths(t *testing.T, art artifacts.Artifact, v artifacts.Version) []string {
	t.Helper()
	baseProg, modProg := art.BaseProgram(), art.ProgramFor(v)
	engine, err := symexec.New(modProg, art.Proc, symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseGraph := cfg.Build(baseProg.Proc(art.Proc))
	d := diff.Procedures(baseProg.Proc(art.Proc), engine.Proc)
	affected := ComputeAffected(baseGraph, engine.Graph, d, Options{})
	return pathStrings(newOracle(engine, affected).run())
}

// schedulerPaths runs the reworked scheduler-based search with the given
// strategy and parallelism on the same version.
func schedulerPaths(t *testing.T, art artifacts.Artifact, v artifacts.Version, strategy string, par int) []string {
	t.Helper()
	baseProg, modProg := art.BaseProgram(), art.ProgramFor(v)
	res, err := Analyze(baseProg, modProg, art.Proc,
		symexec.Config{Strategy: strategy, ExploreParallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return pathStrings(res.Summary)
}

func pathStrings(s *symexec.Summary) []string {
	out := make([]string, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = fmt.Sprintf("%s %v err=%v", p.PCString, p.Trace, p.Err)
	}
	return out
}

// TestSchedulerEquivalenceOnArtifacts is the scheduler acceptance gate over
// the paper's full artifact catalog: for all 40 ASW/WBS/OAE versions, every
// (strategy, parallelism) combination yields the identical affected-path
// sequence — not just set — and the DFS sequential run is byte-identical to
// the pre-refactor recursion.
func TestSchedulerEquivalenceOnArtifacts(t *testing.T) {
	combos := []struct {
		strategy string
		par      int
	}{
		{"dfs", 1}, {"dfs", 4},
		{"bfs", 1}, {"bfs", 4},
		{"directed", 1}, {"directed", 4},
	}
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			for _, v := range art.Versions {
				v := v
				t.Run(v.Name, func(t *testing.T) {
					t.Parallel()
					want := oraclePaths(t, art, v)
					for _, c := range combos {
						got := schedulerPaths(t, art, v, c.strategy, c.par)
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s/par%d: %d paths, oracle has %d — affected paths diverged from the pre-refactor search",
								c.strategy, c.par, len(got), len(want))
						}
					}
				})
			}
		})
	}
}

// TestSchedulerPruneStatsMatchOracle pins the pruner bookkeeping through
// the hook interface: the committed walk must present states to the pruner
// exactly as the recursive search did.
func TestSchedulerPruneStatsMatchOracle(t *testing.T) {
	base, mod := mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource)
	res, err := Analyze(base, mod, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := symexec.New(mustParse(t, fig2ModSource), "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseGraph := cfg.Build(base.Proc("update"))
	d := diff.Procedures(base.Proc("update"), engine.Proc)
	affected := ComputeAffected(baseGraph, engine.Graph, d, Options{})
	oracle := newOracle(engine, affected)
	oracle.run()
	if res.Prune.PrunedStates != oracle.pruned {
		t.Errorf("pruned states = %d, oracle pruned %d", res.Prune.PrunedStates, oracle.pruned)
	}
	if res.Prune.PrunedStates == 0 {
		t.Error("motivating example must prune states")
	}
}

// TestParallelDiSEStatsDeterministic pins the satellite contract for the
// directed search: repeated parallel runs report identical core exploration
// counters and paths, whatever speculation the workers performed.
func TestParallelDiSEStatsDeterministic(t *testing.T) {
	base, mod := mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource)
	seq, err := Analyze(base, mod, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		par, err := Analyze(mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource), "update",
			symexec.Config{ExploreParallelism: 4, Strategy: "directed"})
		if err != nil {
			t.Fatal(err)
		}
		if par.Summary.Stats.StatesExplored != seq.Summary.Stats.StatesExplored {
			t.Fatalf("run %d: committed states %d, want %d",
				i, par.Summary.Stats.StatesExplored, seq.Summary.Stats.StatesExplored)
		}
		if !reflect.DeepEqual(pathStrings(par.Summary), pathStrings(seq.Summary)) {
			t.Fatalf("run %d: parallel paths differ from sequential", i)
		}
	}
}
