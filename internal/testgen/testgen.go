// Package testgen implements the regression-testing application of DiSE
// described in §5.2 of the paper: turning path conditions into concrete test
// inputs, and selecting/augmenting a test suite by comparing the test cases
// generated for the original version against those generated by DiSE for
// the modified version.
//
// The exploration already proved every emitted path feasible and keeps the
// satisfying assignment that proved it (symexec.Path.Model); a test renders
// that witness once it is checked against the path condition, and only a
// path without a valid witness is solved again.
//
// Following the paper, a test case is a rendered call to the method under
// analysis whose argument values come from a model of the path condition —
// "input values only for the method arguments, i.e., a partial state" — so
// multiple path conditions may map to a single test case when globals/fields
// are symbolic; test cases are deduplicated by their rendered string, and
// selection/augmentation is a plain string comparison, exactly as in the
// paper's "trivial in its approach" implementation.
package testgen

import (
	"sort"
	"strconv"

	"dise/internal/constraint"
	"dise/internal/lang/ast"
	"dise/internal/solver"
	"dise/internal/sym"
	"dise/internal/symexec"
)

// TestCase is a concrete invocation of the procedure under analysis.
type TestCase struct {
	// Call is the canonical rendering, e.g. "update(0, 1, 3)". Test cases
	// compare equal iff their Call strings are equal.
	Call string
	// Inputs holds the values of the procedure parameters, in
	// Proc.Params order.
	Inputs []int64
	// PCString is the path condition this test was generated from (the
	// first one, when several map to the same inputs).
	PCString string
}

// Generator turns path conditions into test cases. It reuses a render
// buffer, so one Generator serves one goroutine.
type Generator struct {
	Proc *ast.Procedure
	// Check decides a path condition and produces a model over the input
	// domains. It runs only for paths whose exploration witness is missing
	// or does not satisfy the path condition. The default (NewGenerator) is
	// the engine's solver context, whose prefix reuse makes solving the
	// closely related path conditions of one run incremental.
	Check func(pc []sym.Expr) constraint.Result

	// symbols are the parameters' symbolic input names, in Proc.Params
	// order, resolved on first use.
	symbols []string
	buf     []byte
}

// NewGenerator builds a Generator for the procedure executed by engine,
// reusing the engine's solver context and input domains.
func NewGenerator(engine *symexec.Engine) *Generator {
	return &Generator{
		Proc:  engine.Proc,
		Check: engine.CheckPC,
	}
}

// Generate turns every path condition in the summary into a test case and
// returns the deduplicated test cases in first-generation order. A path
// whose exploration witness (Path.Model) satisfies its path condition is
// rendered from the witness; any other path is re-solved with Check and
// skipped when that is not Sat.
func (g *Generator) Generate(summary *symexec.Summary) []TestCase {
	out := make([]TestCase, 0, len(summary.Paths))
	seen := make(map[string]bool, len(summary.Paths))
	for _, p := range summary.Paths {
		model := p.Model
		if !satisfies(model, p.PC) {
			res := g.Check(p.PC)
			if !res.Sat {
				// Unknown here means the solver budget was exhausted
				// re-solving. Skip, as SPF skips unsolvable path conditions
				// during test generation.
				continue
			}
			model = res.Model
		}
		tc := g.render(model, p.PCString)
		if seen[tc.Call] {
			continue
		}
		seen[tc.Call] = true
		out = append(out, tc)
	}
	return out
}

// satisfies reports whether model is a witness for every conjunct of pc.
func satisfies(model map[string]int64, pc []sym.Expr) bool {
	if model == nil {
		return false
	}
	for _, c := range pc {
		if v, err := solver.EvalInt01(c, model); err != nil || v == 0 {
			return false
		}
	}
	return true
}

// render builds the call string for a model, following the paper's partial
// state convention: only procedure arguments appear.
func (g *Generator) render(model map[string]int64, pcString string) TestCase {
	if g.symbols == nil {
		g.symbols = make([]string, len(g.Proc.Params))
		for i, p := range g.Proc.Params {
			g.symbols[i] = symexec.SymbolName(p.Name)
		}
	}
	inputs := make([]int64, len(g.Proc.Params))
	b := append(g.buf[:0], g.Proc.Name...)
	b = append(b, '(')
	for i, p := range g.Proc.Params {
		v := model[g.symbols[i]]
		inputs[i] = v
		if i > 0 {
			b = append(b, ", "...)
		}
		switch {
		case p.Type != ast.TypeBool:
			b = strconv.AppendInt(b, v, 10)
		case v != 0:
			b = append(b, "true"...)
		default:
			b = append(b, "false"...)
		}
	}
	b = append(b, ')')
	g.buf = b
	return TestCase{
		Call:     string(b),
		Inputs:   inputs,
		PCString: pcString,
	}
}

// Selection is the outcome of test case selection and augmentation.
type Selection struct {
	// Selected are DiSE-generated tests that already exist in the base
	// suite (re-usable regression tests).
	Selected []TestCase
	// Added are DiSE-generated tests absent from the base suite (the
	// augmentation set).
	Added []TestCase
}

// Total returns len(Selected) + len(Added), the paper's "Total Tests".
func (s Selection) Total() int { return len(s.Selected) + len(s.Added) }

// SelectAugment splits the DiSE-generated tests into selected and added
// relative to an existing suite, by exact string comparison of the rendered
// calls (§5.2).
func SelectAugment(baseSuite, diseTests []TestCase) Selection {
	base := map[string]bool{}
	for _, tc := range baseSuite {
		base[tc.Call] = true
	}
	var sel Selection
	for _, tc := range diseTests {
		if base[tc.Call] {
			sel.Selected = append(sel.Selected, tc)
		} else {
			sel.Added = append(sel.Added, tc)
		}
	}
	return sel
}

// Calls returns the sorted call strings of a test list (for reporting).
func Calls(tests []TestCase) []string {
	out := make([]string, len(tests))
	for i, tc := range tests {
		out[i] = tc.Call
	}
	sort.Strings(out)
	return out
}
