package dise

// Equivalence gate for witness-backed test generation: Result.Tests renders
// the satisfying assignment the exploration already found for each path
// instead of re-solving the path condition. The oracle is the re-solve
// itself — the same summary with every witness cleared, which sends each
// path through the solver — and the two must agree test for test (call
// string, inputs, originating path condition) on the artifact pairs and on
// warm version-chain sessions. Generated programs are held to per-path
// feasibility identity (see TestWitnessTestsOnRandomPrograms).

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/constraint"
	"dise/internal/lang/ast"
	"dise/internal/randprog"
	"dise/internal/solver"
	"dise/internal/sym"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

// clearWitnesses returns a copy of s whose paths carry no witness, so
// Generate re-solves every path condition: the oracle of this file.
func clearWitnesses(s *symexec.Summary) *symexec.Summary {
	cleared := *s
	cleared.Paths = append([]symexec.Path(nil), s.Paths...)
	for i := range cleared.Paths {
		cleared.Paths[i].Model = nil
	}
	return &cleared
}

// witnessTests generates r's tests from the exploration's witnesses and,
// as the oracle, from a copy of the summary with every witness cleared. It
// also checks that Result.Tests renders exactly the witness-backed tests,
// and reports how many paths fell back to a re-solve.
func witnessTests(t *testing.T, r *Result) (got, want []testgen.TestCase, resolves int) {
	t.Helper()
	engine, err := symexec.New(r.modProg, r.procName, r.config)
	if err != nil {
		t.Fatal(err)
	}
	g := testgen.NewGenerator(engine)
	check := g.Check
	g.Check = func(pc []sym.Expr) constraint.Result {
		resolves++
		return check(pc)
	}
	got = g.Generate(r.internal.Summary)
	want = testgen.NewGenerator(engine).Generate(clearWitnesses(r.internal.Summary))

	pub, err := r.Tests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pub, convertTests(got)) {
		t.Fatalf("Result.Tests differs from witness-backed Generate:\n%v\n%v", pub, convertTests(got))
	}
	return got, want, resolves
}

func assertSameTests(t *testing.T, label string, got, want []testgen.TestCase) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d witness-backed tests, %d re-solved", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: test %d differs:\n witness  %+v\n re-solve %+v", label, i, got[i], want[i])
		}
	}
}

// TestWitnessTestsMatchResolveOnArtifacts covers every (base, vN) pair of
// the ASW, WBS and OAE artifacts on one warm Analyzer per configuration:
// each search strategy, sequential and parallel exploration, and the
// interval and bit-vector backends (-short: the default configuration
// only). Every emitted path carries a witness that satisfies its path
// condition, so no path needs the re-solve.
func TestWitnessTestsMatchResolveOnArtifacts(t *testing.T) {
	ctx := context.Background()
	strategies, pars := []string{"dfs", "bfs", "directed"}, []int{1, 4}
	backends := []string{constraint.BackendInterval, constraint.BackendBitvec}
	if testing.Short() {
		strategies, pars, backends = strategies[:1], pars[:1], backends[:1]
	}
	for _, strategy := range strategies {
		for _, par := range pars {
			for _, backend := range backends {
				config := fmt.Sprintf("%s/par%d/%s", strategy, par, backend)
				an := NewAnalyzer(WithSearchStrategy(strategy), WithExploreParallelism(par), WithSolverBackend(backend))
				for _, a := range artifacts.All() {
					for _, v := range a.Versions {
						key := config + " " + a.Name + "/" + v.Name
						res, err := an.Analyze(ctx, Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc})
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						got, want, resolves := witnessTests(t, res)
						assertSameTests(t, key, got, want)
						if resolves != 0 {
							t.Errorf("%s: %d of %d paths lacked a valid witness", key, resolves, len(res.Paths))
						}
					}
				}
			}
		}
	}
}

// TestWitnessTestsMatchResolveOnSessions covers the 40 warm chain steps:
// a step's witnesses may come from verdicts the memo trie replayed from an
// earlier version, and its tests must equal both the step's own re-solve
// and the tests of a cold Analyze of the same pair.
func TestWitnessTestsMatchResolveOnSessions(t *testing.T) {
	ctx := context.Background()
	for _, art := range artifacts.All() {
		warm, cold := NewAnalyzer(), NewAnalyzer()
		srcs := chainSources(art)
		sess, err := warm.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(srcs); i++ {
			label := fmt.Sprintf("%s step %d", art.Name, i)
			warmRes, err := sess.Advance(ctx, srcs[i])
			if err != nil {
				t.Fatalf("%s: Advance: %v", label, err)
			}
			coldRes, err := cold.Analyze(ctx, Request{BaseSrc: srcs[i-1], ModSrc: srcs[i], Proc: art.Proc})
			if err != nil {
				t.Fatalf("%s: Analyze: %v", label, err)
			}
			got, want, _ := witnessTests(t, warmRes)
			assertSameTests(t, label+" (warm vs re-solve)", got, want)
			coldGot, _, _ := witnessTests(t, coldRes)
			assertSameTests(t, label+" (warm vs cold)", got, coldGot)
		}
	}
}

// TestWitnessTestsOnRandomPrograms covers generated programs and their
// mutants, for DiSE results and for full symbolic execution of the base
// version (Summary.Tests). Here a witness need not be the re-solve's model:
// the exploration solves a path's conditions prefix by prefix, while the
// re-solve searches the whole conjunction at once and may settle on another
// solution (about 1–2% of generated programs have such a path). So the gate
// is per path: a path gets a test exactly when its re-solve is Sat, and the
// test's inputs are those of a model of the path condition.
func TestWitnessTestsOnRandomPrograms(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 20
	}
	ctx := context.Background()
	an := NewAnalyzer(WithDepthBound(300))
	paths, differing := 0, 0
	for seed := int64(0); seed < int64(trials); seed++ {
		gen := randprog.New(seed, randprog.Config{MaxStmts: 6, MaxDepth: 3})
		base := gen.Program()
		mutant, _ := gen.Mutate(base, 3)
		baseSrc, modSrc := ast.Pretty(base), ast.Pretty(mutant)

		res, err := an.Analyze(ctx, Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: "p"})
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		engine, err := symexec.New(res.modProg, res.procName, res.config)
		if err != nil {
			t.Fatal(err)
		}
		full, err := an.Execute(ctx, baseSrc, "p")
		if err != nil {
			t.Fatalf("seed %d: Execute: %v", seed, err)
		}
		for _, run := range []struct {
			label   string
			engine  *symexec.Engine
			summary *symexec.Summary
		}{
			{fmt.Sprintf("seed %d (DiSE)", seed), engine, res.internal.Summary},
			{fmt.Sprintf("seed %d (full SE)", seed), full.engine, full.summary},
		} {
			g := testgen.NewGenerator(run.engine)
			for i, p := range run.summary.Paths {
				one := &symexec.Summary{Paths: []symexec.Path{p}}
				got := g.Generate(one)
				want := g.Generate(clearWitnesses(one))
				if len(got) != len(want) {
					t.Fatalf("%s: path %d (%s): %d witness-backed tests, %d re-solved", run.label, i, p.PCString, len(got), len(want))
				}
				paths++
				if len(got) == 0 || reflect.DeepEqual(got, want) {
					continue
				}
				differing++
				if !inputsSatisfy(got[0].Inputs, g.Proc, p) {
					t.Fatalf("%s: path %d: inputs %v do not satisfy %s", run.label, i, got[0].Inputs, p.PCString)
				}
			}
		}
		if !reflect.DeepEqual(full.Tests(), convertTests(testgen.NewGenerator(full.engine).Generate(full.summary))) {
			t.Fatalf("seed %d: Summary.Tests differs from witness-backed Generate", seed)
		}
		if _, err := res.Tests(); err != nil {
			t.Fatalf("seed %d: Tests: %v", seed, err)
		}
	}
	t.Logf("%d of %d paths render a witness other than the re-solve's model", differing, paths)
}

// inputsSatisfy reports whether the parameter values of a test, completed
// with the path's witness for every other symbolic input, satisfy the
// path condition.
func inputsSatisfy(inputs []int64, proc *ast.Procedure, p symexec.Path) bool {
	model := maps.Clone(p.Model)
	for i, param := range proc.Params {
		model[symexec.SymbolName(param.Name)] = inputs[i]
	}
	for _, c := range p.PC {
		if v, err := solver.EvalInt01(c, model); err != nil || v == 0 {
			return false
		}
	}
	return true
}
