package symexec

import (
	"sort"
	"strings"
	"testing"

	"dise/internal/lang/parser"
	"dise/internal/solver"
)

// testXSource is the paper's §2.1 illustration: procedure testX with global
// y, whose symbolic execution tree is Fig. 1.
const testXSource = `
int y = 0;
proc testX(int x) {
  if (x > 0) {
    y = y + x;
  } else {
    y = y - x;
  }
}
`

// fig2Source is the motivating example (paper Fig. 2(a)), modified version
// (PedalPos <= 0 at the paper's line 2).
const fig2Source = `
int AltPress = 0;
int Meter = 2;

proc update(int PedalPos, int BSwitch, int PedalCmd) {
  if (PedalPos <= 0) {
    PedalCmd = PedalCmd + 1;
  } else if (PedalPos == 1) {
    PedalCmd = PedalCmd + 2;
  } else {
    PedalCmd = PedalPos;
  }
  PedalCmd = PedalCmd + 1;
  if (BSwitch == 0) {
    Meter = 1;
  } else if (BSwitch == 1) {
    Meter = 2;
  }
  if (PedalCmd == 2) {
    AltPress = 0;
  } else if (PedalCmd == 3) {
    AltPress = 1;
  } else {
    AltPress = 2;
  }
}
`

func newEngine(t *testing.T, src, proc string, config Config) *Engine {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := New(prog, proc, config)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestFig1TestXPaths(t *testing.T) {
	e := newEngine(t, testXSource, "testX", Config{})
	summary := e.RunFull()
	if len(summary.Paths) != 2 {
		t.Fatalf("paths = %d, want 2 (Fig. 1)", len(summary.Paths))
	}
	// True branch first: PC X > 0, y = Y + X.
	p0, p1 := summary.Paths[0], summary.Paths[1]
	if p0.PCString != "X > 0" {
		t.Errorf("path 0 PC = %q, want X > 0", p0.PCString)
	}
	if v, _ := p0.Env.Get("y"); v.String() != "Y + X" {
		t.Errorf("path 0 y = %q, want Y + X", v)
	}
	if p1.PCString != "X <= 0" {
		t.Errorf("path 1 PC = %q, want X <= 0", p1.PCString)
	}
	if v, _ := p1.Env.Get("y"); v.String() != "Y - X" {
		t.Errorf("path 1 y = %q, want Y - X", v)
	}
}

func TestFig1TestXTree(t *testing.T) {
	e := newEngine(t, testXSource, "testX", Config{})
	tree := e.BuildTree()
	rendered := tree.Render()
	for _, want := range []string{
		"PC: true",
		"PC: X > 0",
		"PC: X <= 0",
		"y: Y + X",
		"y: Y - X",
		"x: X",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("tree rendering missing %q:\n%s", want, rendered)
		}
	}
	// The tree has exactly two leaves (two feasible paths), both at the end
	// node.
	leaves := tree.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %d, want 2", len(leaves))
	}
	for _, l := range leaves {
		if !e.Terminal(l) {
			t.Errorf("leaf %v is not terminal", l)
		}
	}
	if tree.CountNodes() != e.Stats().StatesExplored {
		t.Errorf("tree nodes = %d, states explored = %d; must match", tree.CountNodes(), e.Stats().StatesExplored)
	}
}

func TestFig2Full21PathConditions(t *testing.T) {
	// The paper (§2.2): "Using full symbolic execution to validate this
	// change results in 21 path conditions."
	e := newEngine(t, fig2Source, "update", Config{})
	summary := e.RunFull()
	if len(summary.Paths) != 21 {
		var pcs []string
		for _, p := range summary.Paths {
			pcs = append(pcs, p.PCString)
		}
		t.Fatalf("path conditions = %d, want 21 (paper §2.2)\n%s", len(summary.Paths), strings.Join(pcs, "\n"))
	}
	// All path conditions must be distinct.
	seen := map[string]bool{}
	for _, p := range summary.Paths {
		if seen[p.PCString] {
			t.Errorf("duplicate path condition %q", p.PCString)
		}
		seen[p.PCString] = true
	}
	// Infeasible branch pruning must have occurred (the PedalCmd == 2 arm is
	// infeasible in two of the three first-arm contexts).
	if summary.Stats.InfeasibleBranches == 0 {
		t.Error("expected some infeasible branches")
	}
}

func TestFig2FullRangeDomainGives24(t *testing.T) {
	// Ablation (DESIGN.md §5.1): over a full-range domain the PedalCmd==2
	// branches become feasible in every arm — 24 paths instead of 21.
	e := newEngine(t, fig2Source, "update", Config{IntDomain: solver.Interval{Lo: -1_000_000, Hi: 1_000_000}})
	summary := e.RunFull()
	if len(summary.Paths) != 24 {
		t.Fatalf("full-range path conditions = %d, want 24", len(summary.Paths))
	}
}

func TestTracesFollowCFG(t *testing.T) {
	e := newEngine(t, fig2Source, "update", Config{})
	summary := e.RunFull()
	for _, p := range summary.Paths {
		// Each trace must be a valid CFG walk: consecutive nodes connected.
		for i := 0; i+1 < len(p.Trace); i++ {
			from := e.Graph.Nodes[p.Trace[i]]
			connected := false
			for _, edge := range from.Succs {
				if edge.To.ID == p.Trace[i+1] {
					connected = true
				}
			}
			if !connected {
				t.Fatalf("trace %v has no edge n%d -> n%d", p.Trace, p.Trace[i], p.Trace[i+1])
			}
		}
	}
}

func TestLoopDepthBound(t *testing.T) {
	src := `proc spin(int n) {
		i = 0;
		while (i < n) {
			i = i + 1;
		}
	}`
	// Unbounded n over [0, 10^6] would yield a million unrollings; a small
	// depth bound must terminate the run and count the hits.
	e := newEngine(t, src, "spin", Config{DepthBound: 30})
	summary := e.RunFull()
	if summary.Stats.DepthBoundHits == 0 {
		t.Error("expected depth bound hits")
	}
	if len(summary.Paths) == 0 {
		t.Error("bounded loop must still produce completed paths (small n)")
	}
	// Completed paths: n = 0, 1, 2, ... each with PC fixing the iteration
	// count; all distinct.
	seen := map[string]bool{}
	for _, p := range summary.Paths {
		if seen[p.PCString] {
			t.Errorf("duplicate loop path %q", p.PCString)
		}
		seen[p.PCString] = true
	}
}

func TestLoopPathConditions(t *testing.T) {
	src := `proc twice(int n) {
		i = 0;
		while (i < 2) {
			i = i + 1;
		}
		done = n;
	}`
	// Loop bound is concrete: exactly one path (condition folds to
	// constants, no solver involvement for the loop).
	e := newEngine(t, src, "twice", Config{})
	summary := e.RunFull()
	if len(summary.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(summary.Paths))
	}
	if summary.Paths[0].PCString != "true" {
		t.Errorf("PC = %q, want true", summary.Paths[0].PCString)
	}
}

func TestAssertViolationPaths(t *testing.T) {
	src := `proc checked(int x) {
		if (x > 10) {
			y = x - 10;
		} else {
			y = 10 - x;
		}
		assert y <= 10;
	}`
	e := newEngine(t, src, "checked", Config{})
	summary := e.RunFull()
	var errs, oks int
	for _, p := range summary.Paths {
		if p.Err {
			errs++
		} else {
			oks++
		}
	}
	// x > 20 violates (y = x-10 > 10); x in [0,10] gives y in [0,10] fine;
	// x in (10,20] fine. So: 2 ok paths + 1 error path... the x <= 10 arm
	// never violates over the non-negative domain (10 - x <= 10).
	if errs != 1 {
		t.Errorf("error paths = %d, want 1", errs)
	}
	if oks != 2 {
		t.Errorf("ok paths = %d, want 2", oks)
	}
	if got := len(summary.ErrorPaths()); got != errs {
		t.Errorf("ErrorPaths() = %d, want %d", got, errs)
	}
}

func TestConcreteGlobals(t *testing.T) {
	e := newEngine(t, testXSource, "testX", Config{ConcreteGlobals: true})
	summary := e.RunFull()
	if len(summary.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(summary.Paths))
	}
	// Global y starts at its initializer 0, so final y is +X / -X.
	if v, _ := summary.Paths[0].Env.Get("y"); v.String() != "X" {
		t.Errorf("path 0 y = %q, want X", v)
	}
	if v, _ := summary.Paths[1].Env.Get("y"); v.String() != "-X" {
		t.Errorf("path 1 y = %q, want -X", v)
	}
	// Concrete globals are not symbolic inputs.
	if _, ok := e.Domains()["Y"]; ok {
		t.Error("concrete global must not have a solver domain")
	}
}

func TestBooleanParams(t *testing.T) {
	src := `proc gate(bool enable, int x) {
		if (enable) {
			y = x;
		} else {
			y = 0;
		}
	}`
	e := newEngine(t, src, "gate", Config{})
	summary := e.RunFull()
	if len(summary.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(summary.Paths))
	}
	if d := e.Domains()["Enable"]; d != solver.BoolDomain {
		t.Errorf("bool param domain = %v, want %v", d, solver.BoolDomain)
	}
	if summary.Paths[0].PCString != "Enable" {
		t.Errorf("path 0 PC = %q, want Enable", summary.Paths[0].PCString)
	}
	if summary.Paths[1].PCString != "!Enable" {
		t.Errorf("path 1 PC = %q, want !Enable", summary.Paths[1].PCString)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newEngine(t, fig2Source, "update", Config{})
	summary := e.RunFull()
	st := summary.Stats
	if st.PathsExplored != len(summary.Paths) {
		t.Errorf("PathsExplored = %d, Paths = %d", st.PathsExplored, len(summary.Paths))
	}
	if st.StatesExplored <= len(summary.Paths) {
		t.Errorf("StatesExplored = %d, too small", st.StatesExplored)
	}
	if st.Solver.Checks == 0 {
		t.Error("solver must have been consulted")
	}
	if st.Time <= 0 {
		t.Error("time must be recorded")
	}
}

func TestMaxStatesSafetyValve(t *testing.T) {
	e := newEngine(t, fig2Source, "update", Config{MaxStates: 10})
	summary := e.RunFull()
	if !summary.Stats.MaxStatesHit {
		t.Error("MaxStates must trip")
	}
	if summary.Stats.StatesExplored > 20 {
		t.Errorf("states = %d, expected exploration to stop near the cap", summary.Stats.StatesExplored)
	}
}

func TestSymbolNaming(t *testing.T) {
	tests := map[string]string{
		"x": "X", "y": "Y", "PedalPos": "PedalPos", "bSwitch": "BSwitch", "": "",
	}
	for in, want := range tests {
		if got := SymbolName(in); got != want {
			t.Errorf("SymbolName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	prog, err := parser.Parse("proc p(int x) { y = x; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog, "missing", Config{}); err == nil {
		t.Error("expected error for missing procedure")
	}
	bad, err := parser.Parse("proc p(int x) { if (x) { skip; } }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(bad, "p", Config{}); err == nil {
		t.Error("expected type error to propagate")
	}
}

func TestDeterministicExploration(t *testing.T) {
	run := func() []string {
		e := newEngine(t, fig2Source, "update", Config{})
		s := e.RunFull()
		return s.PathConditions()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different path counts across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic exploration at %d: %q vs %q", i, a[i], b[i])
		}
	}
	sorted := append([]string{}, a...)
	sort.Strings(sorted)
	// sanity: conditions mention the inputs
	if !strings.Contains(strings.Join(a, " "), "PedalPos") {
		t.Error("path conditions should mention PedalPos")
	}
}
