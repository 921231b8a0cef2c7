package symexec

import (
	"testing"

	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/memo"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// mergeChainSource is a chain of four independent diamonds: 16 paths under
// plain exploration, 2 under unbounded merging (the final diamond's arms
// reach the end node, which never merges).
const mergeChainSource = `
int y = 0;
proc chain(int x1, int x2, int x3, int x4) {
  if (x1 > 0) { y = y + 1; } else { y = y - 1; }
  if (x2 > 0) { y = y + 2; } else { y = y - 2; }
  if (x3 > 0) { y = y + 3; } else { y = y - 3; }
  if (x4 > 0) { y = y + 4; } else { y = y - 4; }
}
`

// mergeAssertSource routes merged ite environments into an assertion, so the
// error path's feasibility is decided over nested ite constraints.
const mergeAssertSource = `
int r = 0;
proc guard(int a, int b) {
  if (a > 0) { r = a; } else { r = 0 - a; }
  if (b > 0) { r = r + b; } else { r = r - b; }
  assert r > 0;
}
`

// coveredSet is the union of Trace ∪ Cover over all paths: the node coverage
// a run achieved, however its states were fused.
func coveredSet(paths []Path) map[int]bool {
	m := map[int]bool{}
	for _, p := range paths {
		for _, id := range p.Trace {
			m[id] = true
		}
		for _, id := range p.Cover {
			m[id] = true
		}
	}
	return m
}

func sameCoverage(t *testing.T, full, merged *Summary) {
	t.Helper()
	want, got := coveredSet(full.Paths), coveredSet(merged.Paths)
	for id := range want {
		if !got[id] {
			t.Errorf("merged run lost coverage of node %d", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("merged run covers node %d the full run never reached", id)
		}
	}
}

func TestMergeDiamondChainCollapse(t *testing.T) {
	full := newEngine(t, mergeChainSource, "chain", Config{}).RunFull()
	merged := newEngine(t, mergeChainSource, "chain", Config{MergeBound: MergeUnbounded}).RunFull()

	if len(full.Paths) != 16 {
		t.Fatalf("full paths = %d, want 16", len(full.Paths))
	}
	if len(merged.Paths) != 2 {
		t.Fatalf("merged paths = %d, want 2", len(merged.Paths))
	}
	if merged.Stats.Merge.Merges != 3 {
		t.Errorf("merges = %d, want 3 (one per interior join)", merged.Stats.Merge.Merges)
	}
	if merged.Stats.Merge.MergedStatesSaved != 3 {
		t.Errorf("merged states saved = %d, want 3", merged.Stats.Merge.MergedStatesSaved)
	}
	if merged.Stats.Merge.IteNodes == 0 {
		t.Errorf("ite nodes = 0, want > 0 (env fusion builds ite trees)")
	}
	if 3*merged.Stats.StatesExplored > full.Stats.StatesExplored {
		t.Errorf("states explored: merged %d vs full %d, want >= 3x reduction on the diamond chain",
			merged.Stats.StatesExplored, full.Stats.StatesExplored)
	}
	sameCoverage(t, full, merged)

	// Complete sibling sets cancel: the interior joins append no disjunct,
	// so the merged paths' conditions are the final diamond's constraint
	// alone.
	if got := merged.Paths[0].PCString; got != "X4 > 0" {
		t.Errorf("merged path 0 PC = %q, want X4 > 0", got)
	}
	if got := merged.Paths[1].PCString; got != "X4 <= 0" {
		t.Errorf("merged path 1 PC = %q, want X4 <= 0", got)
	}
}

func TestMergeBoundChunking(t *testing.T) {
	// Bound 2 on the same chain: batches of two still merge whole.
	merged := newEngine(t, mergeChainSource, "chain", Config{MergeBound: 2}).RunFull()
	if len(merged.Paths) != 2 {
		t.Fatalf("merged paths = %d, want 2", len(merged.Paths))
	}
	if merged.Stats.Merge.Merges != 3 {
		t.Errorf("merges = %d, want 3", merged.Stats.Merge.Merges)
	}
}

func TestMergeBudgetStopsMerging(t *testing.T) {
	merged := newEngine(t, mergeChainSource, "chain", Config{MergeBound: MergeUnbounded, MergeBudget: 1}).RunFull()
	if merged.Stats.Merge.Merges != 1 {
		t.Errorf("merges = %d, want exactly the budget of 1", merged.Stats.Merge.Merges)
	}
	full := newEngine(t, mergeChainSource, "chain", Config{}).RunFull()
	sameCoverage(t, full, merged)
}

func TestMergeErrorPathEquivalence(t *testing.T) {
	full := newEngine(t, mergeAssertSource, "guard", Config{}).RunFull()
	merged := newEngine(t, mergeAssertSource, "guard", Config{MergeBound: MergeUnbounded}).RunFull()

	wantErr := len(full.ErrorPaths())
	gotErr := len(merged.ErrorPaths())
	if wantErr == 0 {
		t.Fatalf("test setup: full run found no error path (a = 0, b = 0 violates r > 0)")
	}
	if gotErr == 0 {
		t.Fatalf("merged run lost the error path: the ite-fused assert constraint was not decided feasible")
	}
	sameCoverage(t, full, merged)

	// Every merged path condition must remain solvable (test generation
	// feasibility), including those carrying ite and disjunction conjuncts.
	e := newEngine(t, mergeAssertSource, "guard", Config{})
	for i, p := range merged.Paths {
		res := e.CheckPC(p.PC)
		if !res.Sat || res.Unknown {
			t.Errorf("merged path %d PC %q not solvable (sat=%v unknown=%v)", i, p.PCString, res.Sat, res.Unknown)
		}
	}
}

func TestMergeMultiWayJoin(t *testing.T) {
	// fig2's 3-arm branches: a 3-way join merges whole at MergeUnbounded and
	// in a 2+1 split at bound 2; coverage matches the plain run either way.
	full := newEngine(t, fig2Source, "update", Config{}).RunFull()
	for _, bound := range []int{MergeUnbounded, 2, 8} {
		merged := newEngine(t, fig2Source, "update", Config{MergeBound: bound}).RunFull()
		if len(merged.Paths) >= len(full.Paths) {
			t.Errorf("bound %d: merged paths = %d, want fewer than full's %d", bound, len(merged.Paths), len(full.Paths))
		}
		if merged.Stats.Merge.Merges == 0 {
			t.Errorf("bound %d: no merges performed", bound)
		}
		sameCoverage(t, full, merged)
	}
}

func TestMergeConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		config Config
	}{
		{"bound 1", Config{MergeBound: 1}},
		{"bound below unbounded", Config{MergeBound: -2}},
		{"negative budget", Config{MergeBound: 2, MergeBudget: -1}},
		{"memo incompatible", Config{MergeBound: 2, Memo: &memo.Tree{}}},
	} {
		if _, err := New(mustParse(t, mergeChainSource), "chain", tc.config); err == nil {
			t.Errorf("%s: New accepted config %+v, want error", tc.name, tc.config)
		}
	}
	// The boundary values stay valid.
	for _, bound := range []int{0, MergeUnbounded, 2} {
		if _, err := New(mustParse(t, mergeChainSource), "chain", Config{MergeBound: bound}); err != nil {
			t.Errorf("bound %d: New rejected valid config: %v", bound, err)
		}
	}
}
