package testgen

import (
	"reflect"
	"strings"
	"testing"

	"dise/internal/constraint"
	"dise/internal/dise"
	"dise/internal/lang/parser"
	"dise/internal/solver"
	"dise/internal/sym"
	"dise/internal/symexec"
)

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

func engineFor(t *testing.T, src, proc string) *symexec.Engine {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := symexec.New(prog, proc, symexec.Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return e
}

func TestGenerateFromTestX(t *testing.T) {
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	g := NewGenerator(e)
	tests := g.Generate(summary)
	if len(tests) != 2 {
		t.Fatalf("tests = %d, want 2", len(tests))
	}
	// Deterministic smallest models: x > 0 → 1; x <= 0 → 0.
	if tests[0].Call != "testX(1)" {
		t.Errorf("test 0 = %q, want testX(1)", tests[0].Call)
	}
	if tests[1].Call != "testX(0)" {
		t.Errorf("test 1 = %q, want testX(0)", tests[1].Call)
	}
	if tests[0].Inputs[0] != 1 {
		t.Errorf("inputs = %v, want x=1", tests[0].Inputs)
	}
}

func TestGenerateDeduplicatesPartialStates(t *testing.T) {
	// Paths split on a symbolic global; the method argument models coincide,
	// so the paper's partial-state rendering dedups them.
	src := `
int g = 0;
proc p(int x) {
  if (g > 5) {
    y = 1;
  } else {
    y = 2;
  }
}
`
	e := engineFor(t, src, "p")
	summary := e.RunFull()
	if len(summary.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(summary.Paths))
	}
	g := NewGenerator(e)
	tests := g.Generate(summary)
	if len(tests) != 1 {
		t.Fatalf("tests = %d, want 1 (both PCs constrain only the global)", len(tests))
	}
	if tests[0].Call != "p(0)" {
		t.Errorf("call = %q, want p(0)", tests[0].Call)
	}
}

func TestGenerateBoolRendering(t *testing.T) {
	src := `proc p(bool flag, int x) {
  if (flag) {
    y = x;
  } else {
    y = 0;
  }
}`
	e := engineFor(t, src, "p")
	summary := e.RunFull()
	g := NewGenerator(e)
	tests := g.Generate(summary)
	if len(tests) != 2 {
		t.Fatalf("tests = %d, want 2", len(tests))
	}
	if tests[0].Call != "p(true, 0)" || tests[1].Call != "p(false, 0)" {
		t.Errorf("calls = %v, want p(true, 0) and p(false, 0)", Calls(tests))
	}
}

func TestModelsSatisfyPathConditions(t *testing.T) {
	// Every generated test's full model must satisfy the path condition it
	// came from.
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	g := NewGenerator(e)
	for _, p := range summary.Paths {
		res := g.Check(p.PC)
		if !res.Sat {
			t.Fatalf("path %q must be satisfiable", p.PCString)
		}
		for _, c := range p.PC {
			v, err := solver.EvalInt01(c, res.Model)
			if err != nil || v == 0 {
				t.Errorf("model %v violates %s (err=%v)", res.Model, c, err)
			}
		}
	}
}

func TestSelectAugment(t *testing.T) {
	base := []TestCase{{Call: "p(0)"}, {Call: "p(1)"}, {Call: "p(5)"}}
	diseT := []TestCase{{Call: "p(1)"}, {Call: "p(7)"}, {Call: "p(0)"}}
	sel := SelectAugment(base, diseT)
	if got := Calls(sel.Selected); !reflect.DeepEqual(got, []string{"p(0)", "p(1)"}) {
		t.Errorf("selected = %v, want [p(0) p(1)]", got)
	}
	if got := Calls(sel.Added); !reflect.DeepEqual(got, []string{"p(7)"}) {
		t.Errorf("added = %v, want [p(7)]", got)
	}
	if sel.Total() != 3 {
		t.Errorf("total = %d, want 3", sel.Total())
	}
}

func TestSelectAugmentEmptyCases(t *testing.T) {
	sel := SelectAugment(nil, nil)
	if sel.Total() != 0 {
		t.Error("empty selection must be empty")
	}
	sel = SelectAugment(nil, []TestCase{{Call: "p(1)"}})
	if len(sel.Selected) != 0 || len(sel.Added) != 1 {
		t.Error("all tests must be added when base suite is empty")
	}
}

// TestEndToEndSelectionOnMotivatingExample mirrors the paper's workflow:
// full SE on the base version produces the existing suite; DiSE on the
// modified version produces the affected tests; selection + augmentation
// covers all affected branches.
func TestEndToEndSelectionOnMotivatingExample(t *testing.T) {
	baseSrc := strings.Replace(fig2Mod, "PedalPos <= 0", "PedalPos == 0", 1)
	baseProg, err := parser.Parse(baseSrc)
	if err != nil {
		t.Fatal(err)
	}
	modProg, err := parser.Parse(fig2Mod)
	if err != nil {
		t.Fatal(err)
	}

	// Existing suite: full symbolic execution of the base version.
	baseEngine, err := symexec.New(baseProg, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseSuite := NewGenerator(baseEngine).Generate(baseEngine.RunFull())
	if len(baseSuite) == 0 {
		t.Fatal("base suite is empty")
	}

	// DiSE on the modified version.
	res, err := dise.Analyze(baseProg, modProg, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	modEngine, err := symexec.New(modProg, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	diseTests := NewGenerator(modEngine).Generate(res.Summary)
	if len(diseTests) == 0 {
		t.Fatal("DiSE generated no tests")
	}
	sel := SelectAugment(baseSuite, diseTests)
	if sel.Total() != len(diseTests) {
		t.Errorf("selection total %d != DiSE tests %d", sel.Total(), len(diseTests))
	}
	// The change (== to <=) keeps PedalPos == 0 behaviors shared, so at
	// least one test should be re-usable and at least the suite must not be
	// fully re-usable or fully new in this example... verify both sets are
	// consistent with string membership.
	base := map[string]bool{}
	for _, tc := range baseSuite {
		base[tc.Call] = true
	}
	for _, tc := range sel.Selected {
		if !base[tc.Call] {
			t.Errorf("selected test %q not in base suite", tc.Call)
		}
	}
	for _, tc := range sel.Added {
		if base[tc.Call] {
			t.Errorf("added test %q already in base suite", tc.Call)
		}
	}
}

const fig2Mod = `
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

func TestGenerateSkipsUnknown(t *testing.T) {
	// A generator with a tiny budget must skip rather than crash.
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	g := NewGenerator(e)
	// A budget-1 solver context over the same domains: simple constraints
	// still solve via propagation alone; force Unknown with an artificial
	// hard path condition.
	domains := e.Domains()
	domains["X"] = solver.DefaultDomain
	domains["Y"] = solver.DefaultDomain
	tiny, err := constraint.New(constraint.BackendInterval, constraint.Options{
		Domains:    domains,
		NodeBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Check = func(pc []sym.Expr) constraint.Result {
		tiny.Push()
		defer tiny.Pop()
		for _, c := range pc {
			tiny.Assert(c)
		}
		return tiny.Check()
	}
	hard := summary
	hard.Paths = append([]symexec.Path{}, summary.Paths...)
	x, y := sym.V("X"), sym.V("Y")
	hard.Paths[0].PC = []sym.Expr{
		sym.Cmp(sym.OpEQ, sym.Mul(x, y), sym.Int(999_983)),
		sym.Cmp(sym.OpGT, x, sym.One),
		sym.Cmp(sym.OpGT, y, sym.One),
	}
	tests := g.Generate(hard)
	// The hard PC is skipped; the other remains.
	if len(tests) != 1 {
		t.Fatalf("tests = %d, want 1 (hard PC skipped)", len(tests))
	}
}

// countingCheck wraps g.Check so a test can see which path conditions the
// generator re-solved.
func countingCheck(g *Generator) *[]string {
	var resolved []string
	check := g.Check
	g.Check = func(pc []sym.Expr) constraint.Result {
		resolved = append(resolved, sym.Conjoin(pc))
		return check(pc)
	}
	return &resolved
}

// TestGenerateRendersWitnesses pins the common case: every explored path
// carries a witness satisfying its path condition, so Generate renders the
// witnesses and never calls Check.
func TestGenerateRendersWitnesses(t *testing.T) {
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	g := NewGenerator(e)
	resolved := countingCheck(g)
	tests := g.Generate(summary)
	if len(*resolved) != 0 {
		t.Fatalf("re-solved %v, want no Check call", *resolved)
	}
	if got := Calls(tests); !reflect.DeepEqual(got, []string{"testX(0)", "testX(1)"}) {
		t.Errorf("calls = %v, want testX(0) and testX(1)", got)
	}
}

// TestGenerateResolvesWithoutWitness: a path with no witness is re-solved.
func TestGenerateResolvesWithoutWitness(t *testing.T) {
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	summary.Paths[0].Model = nil
	g := NewGenerator(e)
	resolved := countingCheck(g)
	tests := g.Generate(summary)
	if want := []string{summary.Paths[0].PCString}; !reflect.DeepEqual(*resolved, want) {
		t.Fatalf("re-solved %v, want %v", *resolved, want)
	}
	if len(tests) != 2 || tests[0].Call != "testX(1)" {
		t.Errorf("calls = %v, want testX(1) first", Calls(tests))
	}
}

// TestGenerateResolvesViolatedWitness: a witness that does not satisfy its
// path condition is not rendered; the path is re-solved.
func TestGenerateResolvesViolatedWitness(t *testing.T) {
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	// Path 0 is X > 0; X = 0 violates it.
	summary.Paths[0].Model = map[string]int64{"X": 0, "Y": 0}
	g := NewGenerator(e)
	resolved := countingCheck(g)
	tests := g.Generate(summary)
	if want := []string{summary.Paths[0].PCString}; !reflect.DeepEqual(*resolved, want) {
		t.Fatalf("re-solved %v, want %v", *resolved, want)
	}
	if len(tests) != 2 || tests[0].Call != "testX(1)" {
		t.Errorf("calls = %v, want testX(1) first", Calls(tests))
	}
}

// TestGenerateSkipsUnknownResolve: when a path needs the re-solve and it
// returns Unknown, the path is skipped; paths with valid witnesses still
// produce their tests.
func TestGenerateSkipsUnknownResolve(t *testing.T) {
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	summary.Paths[0].Model = nil
	g := NewGenerator(e)
	calls := 0
	g.Check = func(pc []sym.Expr) constraint.Result {
		calls++
		return constraint.Result{Unknown: true}
	}
	tests := g.Generate(summary)
	if calls != 1 {
		t.Fatalf("Check calls = %d, want 1", calls)
	}
	if len(tests) != 1 || tests[0].Call != "testX(0)" {
		t.Errorf("calls = %v, want only testX(0)", Calls(tests))
	}
}

// TestRenderAllocations holds render to two allocations per test case: the
// call string and the Inputs slice.
func TestRenderAllocations(t *testing.T) {
	e := engineFor(t, fig2Mod, "update")
	g := NewGenerator(e)
	model := map[string]int64{"PedalPos": 3, "BSwitch": 1, "PedalCmd": 12, "AltPress": 0, "Meter": 2}
	var tc TestCase
	allocs := testing.AllocsPerRun(100, func() {
		tc = g.render(model, "PedalPos > 1")
	})
	if tc.Call != "update(3, 1, 12)" || !reflect.DeepEqual(tc.Inputs, []int64{3, 1, 12}) {
		t.Fatalf("render = %+v", tc)
	}
	if allocs > 2 {
		t.Errorf("render allocates %.1f times per call, want at most 2", allocs)
	}
}
