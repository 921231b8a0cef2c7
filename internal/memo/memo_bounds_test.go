package memo

import (
	"testing"

	"dise/internal/sym"
)

// buildChain attaches a linear chain of n nodes under parent, stamping each
// with gen and hits, and returns the first node of the chain.
func buildChain(parent *Node, n int, gen uint64, hits uint32, via int8, cond sym.Expr) *Node {
	first := &Node{Key: "k", Via: via, ViaCond: cond, gen: gen, hits: hits, Expanded: true}
	parent.Succs = append(parent.Succs, first)
	cur := first
	for i := 1; i < n; i++ {
		next := &Node{Key: "k", Via: ViaFlow, gen: gen, hits: hits, Expanded: true}
		cur.Succs = append(cur.Succs, next)
		cur = next
	}
	return first
}

func TestEnforceNoBudgetIsNoop(t *testing.T) {
	var tr Tree
	root := tr.Root("r")
	buildChain(root, 50, 0, 0, ViaTrue, sym.V("c1"))
	if n := tr.Enforce(); n != 0 {
		t.Fatalf("Enforce with no budget evicted %d nodes", n)
	}
	if tr.Size() != 51 {
		t.Fatalf("tree changed size without a budget: %d", tr.Size())
	}
}

func TestEnforceEvictsColdestSubtreeFirst(t *testing.T) {
	var tr Tree
	tr.BeginStep() // gen 1
	root := tr.Root("r")
	cold := buildChain(root, 10, 1, 0, ViaTrue, sym.Cmp(sym.OpLT, sym.V("a"), sym.Int(3)))
	tr.BeginStep() // gen 2
	hot := buildChain(root, 10, 2, 5, ViaFalse, sym.Cmp(sym.OpGE, sym.V("a"), sym.Int(3)))

	tr.SetNodeBudget(11) // root + one chain
	evicted := tr.Enforce()
	if evicted != 10 {
		t.Fatalf("evicted %d nodes, want 10", evicted)
	}
	if tr.Size() != 11 {
		t.Fatalf("size after Enforce = %d, want 11", tr.Size())
	}
	// The stale (gen-1) chain went; the current-step chain stayed.
	if root.Child(ViaTrue, cold.ViaCond) != nil {
		t.Fatal("cold subtree still attached after Enforce")
	}
	if root.Child(ViaFalse, hot.ViaCond) != hot {
		t.Fatal("hot subtree was evicted")
	}
	subtrees, nodes := tr.EvictionStats()
	if subtrees != 1 || nodes != 10 {
		t.Fatalf("eviction stats = (%d, %d), want (1, 10)", subtrees, nodes)
	}
}

func TestEnforceHitAwareAmongEquallyStale(t *testing.T) {
	var tr Tree
	tr.BeginStep()
	root := tr.Root("r")
	unhit := buildChain(root, 8, 1, 0, ViaTrue, sym.V("p"))
	hitten := buildChain(root, 8, 1, 9, ViaFalse, sym.V("q"))
	tr.BeginStep() // both chains now stale

	tr.SetNodeBudget(9)
	if n := tr.Enforce(); n != 8 {
		t.Fatalf("evicted %d, want 8", n)
	}
	if root.Child(ViaTrue, unhit.ViaCond) != nil {
		t.Fatal("never-hit subtree survived over the frequently-hit one")
	}
	if root.Child(ViaFalse, hitten.ViaCond) != hitten {
		t.Fatal("frequently-hit subtree was evicted first")
	}
}

func TestEnforceEvictedMeansColdNeverWrong(t *testing.T) {
	// After eviction the evicted conjunction must look exactly like one the
	// trie never recorded: Child returns nil (fresh node, cold re-solve) —
	// never a node with someone else's verdicts.
	var tr Tree
	tr.BeginStep()
	root := tr.Root("r")
	cond := sym.Cmp(sym.OpEQ, sym.V("x"), sym.Int(7))
	child := buildChain(root, 3, 1, 0, ViaTrue, cond)
	child.Record(cond, true, map[string]int64{"x": 7})
	tr.BeginStep()
	buildChain(root, 3, 2, 0, ViaFalse, sym.NotE(cond))

	tr.SetNodeBudget(4)
	tr.Enforce()
	got := root.Child(ViaTrue, cond)
	if got != nil {
		t.Fatalf("evicted arm still resolves to a recorded node %+v", got)
	}
	// The surviving arm still replays its own facts only.
	if root.Child(ViaFalse, sym.NotE(cond)) == nil {
		t.Fatal("surviving arm lost its node")
	}
}

func TestEnforceDeterministic(t *testing.T) {
	build := func() *Tree {
		var tr Tree
		tr.BeginStep()
		root := tr.Root("r")
		for i := 0; i < 6; i++ {
			buildChain(root, 5, 1, uint32(i%3), ViaTrue, sym.Cmp(sym.OpLT, sym.V("v"), sym.Int(int64(i))))
		}
		tr.SetNodeBudget(16)
		return &tr
	}
	a, b := build(), build()
	a.Enforce()
	b.Enforce()
	if a.Size() != b.Size() {
		t.Fatalf("non-deterministic eviction: sizes %d vs %d", a.Size(), b.Size())
	}
	ra, rb := a.Root(""), b.Root("")
	if len(ra.Succs) != len(rb.Succs) {
		t.Fatalf("non-deterministic eviction: %d vs %d surviving children", len(ra.Succs), len(rb.Succs))
	}
	for i := range ra.Succs {
		if !eqExpr(ra.Succs[i].ViaCond, rb.Succs[i].ViaCond) {
			t.Fatalf("surviving child %d differs between identical runs", i)
		}
	}
}

func TestBytesEstimatorSanity(t *testing.T) {
	var tr Tree
	if tr.Bytes() != 0 {
		t.Fatalf("empty tree reports %d bytes", tr.Bytes())
	}
	root := tr.Root("begin")
	small := tr.Bytes()
	if small <= 0 {
		t.Fatalf("single-node tree reports %d bytes", small)
	}
	cond := sym.Cmp(sym.OpLT, sym.V("x"), sym.Int(1))
	c := buildChain(root, 20, 1, 0, ViaTrue, cond)
	c.Record(cond, true, map[string]int64{"x": 0, "y": 1})
	grown := tr.Bytes()
	if grown <= small {
		t.Fatalf("Bytes did not grow with nodes: %d -> %d", small, grown)
	}
	// Sanity bounds: each node costs at least the struct base and at most a
	// few KB for these tiny nodes.
	n := int64(tr.Size())
	if grown < n*nodeBaseBytes || grown > n*4096 {
		t.Fatalf("Bytes %d implausible for %d nodes", grown, n)
	}
	// Eviction reduces the estimate.
	tr.SetNodeBudget(5)
	tr.BeginStep()
	tr.Enforce()
	if after := tr.Bytes(); after >= grown {
		t.Fatalf("Bytes did not shrink after eviction: %d -> %d", grown, after)
	}
}

// TestUsageCountsLikeSize pins the node count of the one-walk Usage to
// Size on an empty, a grown and an evicted trie.
func TestUsageCountsLikeSize(t *testing.T) {
	var tr Tree
	check := func(stage string) {
		t.Helper()
		if n, _ := tr.Usage(); n != tr.Size() {
			t.Fatalf("%s: Usage counts %d nodes, Size %d", stage, n, tr.Size())
		}
	}
	check("empty")
	cond := sym.Cmp(sym.OpLT, sym.V("x"), sym.Int(1))
	c := buildChain(tr.Root("begin"), 20, 1, 0, ViaTrue, cond)
	c.Record(cond, true, map[string]int64{"x": 0, "y": 1})
	check("grown")
	tr.SetNodeBudget(5)
	tr.BeginStep()
	tr.Enforce()
	check("evicted")
}
