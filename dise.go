// Package dise is a Go implementation of Directed Incremental Symbolic
// Execution (Person, Yang, Rungta, Khurshid — PLDI 2011), together with the
// complete substrate it needs: a small Java-like imperative language with
// lexer, parser and type checker; control flow graphs with post-dominance,
// control dependence and SCC analyses; a structural AST diff; a symbolic
// execution engine; and a Choco-style finite-domain constraint solver.
//
// The public API is the Analyzer: a reusable, concurrency-safe service
// object that parses two versions of a program, diffs them, computes the
// affected-location sets (ACN/AWN, paper Fig. 3–5), runs the directed
// symbolic execution (paper Fig. 6), and exposes the resulting affected
// path conditions, cost statistics, and regression-test
// selection/augmentation (paper §5.2). Analyses accept a context.Context
// (cancellation reaches the innermost search loops), reuse a parse/CFG
// cache across requests, and can be batched or streamed.
//
// Quick start:
//
//	a := dise.NewAnalyzer()
//	res, err := a.Analyze(ctx, dise.Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: "update"})
//	for _, pc := range res.PathConditions() { fmt.Println(pc) }
//
// The package-level functions (Analyze, Execute, ...) are deprecated thin
// wrappers over a throwaway Analyzer, kept for compatibility.
package dise

import (
	"context"
	"encoding/json"
	"fmt"

	"dise/internal/artifacts"
	"dise/internal/constraint"
	idise "dise/internal/dise"
	"dise/internal/inline"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/lang/types"
	"dise/internal/sym"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

// Options configures an analysis.
//
// Deprecated: Options is the configuration struct of the legacy
// package-level API. New code should construct an Analyzer with functional
// options (WithDepthBound, WithIntDomain, ...); WithOptions adapts an
// existing Options value.
type Options struct {
	// DepthBound limits the number of CFG nodes executed on one path
	// (loop/recursion bound, paper §2.1). Zero selects the default of 1000.
	DepthBound int
	// IntDomain overrides the solver domain of integer symbolic inputs.
	// The zero value selects the Choco-like non-negative default
	// [0, 1e6] (see DESIGN.md).
	IntDomain *[2]int64
	// ConcreteGlobals makes globals take their declared initializers
	// instead of fresh symbolic values.
	ConcreteGlobals bool
	// SolverNodeBudget caps constraint-solver search nodes per
	// satisfiability check (0 = default). Exhausted budgets are treated as
	// unsatisfiable, as SPF does (paper §4.1).
	SolverNodeBudget int
	// TransitiveWrites enables the write→write dataflow extension to the
	// paper's affected-set rules (DESIGN.md §6.4).
	TransitiveWrites bool
}

// analyzer builds a single-use Analyzer mirroring the legacy options.
func (o Options) analyzer() *Analyzer { return NewAnalyzer(WithOptions(o)) }

// Program is a parsed and type-checked program.
type Program struct {
	AST *ast.Program
	src string
}

// ParseProgram parses and type-checks source text.
func ParseProgram(src string) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, &Error{Kind: ParseError, Err: err}
	}
	if _, err := types.Check(prog); err != nil {
		return nil, &Error{Kind: TypeError, Err: err}
	}
	return &Program{AST: prog, src: src}, nil
}

// Procedures lists the procedure names in declaration order.
func (p *Program) Procedures() []string {
	out := make([]string, len(p.AST.Procs))
	for i, pr := range p.AST.Procs {
		out[i] = pr.Name
	}
	return out
}

// Pretty returns the canonical pretty-printed source.
func (p *Program) Pretty() string { return ast.Pretty(p.AST) }

// PathInfo describes one explored path.
type PathInfo struct {
	// PathCondition is the rendered path condition, e.g.
	// "PedalPos <= 0 && BSwitch == 0".
	PathCondition string `json:"path_condition"`
	// AssertViolated reports that the path ends in an assertion failure.
	AssertViolated bool `json:"assert_violated"`
}

// Stats summarizes the cost of a symbolic execution run (the dependent
// variables of the paper's evaluation, §4.2.2). The counter groups are the
// engine's, the pruner's and the solver's own structs, passed through
// unchanged; their JSON tags are the keys of the result.
type Stats struct {
	// CoreStats and RunStats are the exploration counters: states,
	// infeasible branches, depth-bound cuts, model hits, collected paths and
	// whether the MaxStates valve stopped the run.
	symexec.CoreStats
	symexec.RunStats
	PathConditions   int   `json:"path_conditions"`
	TimeMilliseconds int64 `json:"time_ms"`
	SolverCalls      int   `json:"solver_calls"`
	// SearchStrategy and ExploreParallelism echo the exploration-scheduler
	// configuration the run used (WithSearchStrategy/WithExploreParallelism).
	SearchStrategy     string `json:"search_strategy"`
	ExploreParallelism int    `json:"explore_parallelism"`
	// PruneStats counts the DiSE pruner's work; zero for full symbolic
	// execution.
	idise.PruneStats
	// Solver breaks the solver work down by the incremental machinery of
	// the constraint subsystem (internal/constraint).
	Solver SolverStats `json:"solver_stats"`
	// Memo reports the execution-tree reuse of a version-chain session
	// (Session.Advance); it is zero for one-shot Analyze calls.
	Memo MemoStats `json:"memo_stats"`
	// Merge reports the join-point state fusion of a bounded-state-merging
	// run (WithStateMerging); it is zero when merging is disabled.
	Merge MergeStats `json:"merge_stats"`
}

// MarshalJSON omits the solver/memo/merge observability sub-blocks uniformly
// when they carry no data: a block equal to its zero value disappears from
// the output instead of serializing as a tree of zeros. The struct tags
// alone cannot express this — encoding/json's omitempty never applies to
// struct-typed fields — so the zero checks live here.
func (s Stats) MarshalJSON() ([]byte, error) {
	type alias Stats // method-free copy: avoids recursing into MarshalJSON
	out := struct {
		alias
		Solver *SolverStats `json:"solver_stats,omitempty"`
		Memo   *MemoStats   `json:"memo_stats,omitempty"`
		Merge  *MergeStats  `json:"merge_stats,omitempty"`
	}{alias: alias(s)}
	if s.Solver != (SolverStats{}) {
		out.Solver = &s.Solver
	}
	if s.Memo != (MemoStats{}) {
		out.Memo = &s.Memo
	}
	if s.Merge != (MergeStats{}) {
		out.Merge = &s.Merge
	}
	return json.Marshal(out)
}

// SolverStats is the observability block of the constraint subsystem: how
// many satisfiability checks ran, how the assertion stack moved with the
// exploration tree, how many checks the prefix-reuse machinery (cache,
// witness models, propagation snapshots) answered without a full solve, and
// the external-solver resilience counters.
type SolverStats = constraint.Stats

// MergeStats is the observability block of bounded state merging
// (WithStateMerging): how many join-point fusions the run performed and how
// much exploration they collapsed.
type MergeStats = symexec.MergeStats

// MemoStats is the observability block of a version-chain session step: how
// much of the previous version's recorded execution tree survived the edit,
// and how many solver decisions were answered from it. Like the solver
// counters, the replay/live split includes speculative work and may vary
// with parallelism; the analysis outcome does not.
type MemoStats struct {
	// Enabled distinguishes a session step from a cold Analyze.
	Enabled bool `json:"enabled"`
	// Step counts Advance calls on the session, starting at 1.
	Step int `json:"step"`
	// MemoStats are the engine's replay counters: decisions answered by a
	// recorded verdict (MemoHits) and expansions replayed versus recorded
	// fresh (MemoStatesReplayed, MemoStatesLive).
	symexec.MemoStats
	// NodesKept and NodesInvalidated report the diff-driven trie rewrite
	// that preceded the run: recorded nodes whose statements survived the
	// edit versus nodes dropped because their statement changed, moved, or
	// the symbolic inputs diverged.
	NodesKept        int `json:"nodes_kept"`
	NodesInvalidated int `json:"nodes_invalidated"`
	// NodesEvicted counts nodes the step's budget enforcement dropped
	// (WithMemoNodeBudget) — cold subtrees that will re-solve if needed,
	// never a correctness event.
	NodesEvicted int `json:"nodes_evicted"`
	// TrieNodes is the size of the memo trie after the step; TrieBytes its
	// approximate retained footprint (memo.Tree.Bytes).
	TrieNodes int   `json:"trie_nodes"`
	TrieBytes int64 `json:"trie_bytes"`
}

// Add accumulates one session step's memo counters into an aggregate. In the
// aggregate, Step counts the enabled (session-step) samples added, and
// TrieNodes tracks the largest trie observed; the hit/replay/invalidation
// counters sum.
func (m *MemoStats) Add(o MemoStats) {
	if o.Enabled {
		m.Enabled = true
		m.Step++
	}
	m.MemoStats.Add(o.MemoStats)
	m.NodesKept += o.NodesKept
	m.NodesInvalidated += o.NodesInvalidated
	m.NodesEvicted += o.NodesEvicted
	if o.TrieNodes > m.TrieNodes {
		m.TrieNodes = o.TrieNodes
	}
	if o.TrieBytes > m.TrieBytes {
		m.TrieBytes = o.TrieBytes
	}
}

// Add accumulates one run's cost statistics into an aggregate (counters
// sum, each block aggregates per its own Add semantics); the
// strategy/parallelism echo fields keep the first non-zero sample. Services
// use it to expose cumulative solver_stats/memo_stats across requests.
func (s *Stats) Add(o Stats) {
	s.CoreStats.Add(o.CoreStats)
	s.RunStats.Add(o.RunStats)
	s.PathConditions += o.PathConditions
	s.TimeMilliseconds += o.TimeMilliseconds
	s.SolverCalls += o.SolverCalls
	if s.SearchStrategy == "" {
		s.SearchStrategy = o.SearchStrategy
	}
	if s.ExploreParallelism == 0 {
		s.ExploreParallelism = o.ExploreParallelism
	}
	s.PruneStats.Add(o.PruneStats)
	s.Solver.Add(o.Solver)
	s.Memo.Add(o.Memo)
	s.Merge.Add(o.Merge)
}

func statsOf(s symexec.Stats, pcs int, cfg symexec.Config) Stats {
	return Stats{
		CoreStats:        s.CoreStats,
		RunStats:         s.RunStats,
		PathConditions:   pcs,
		TimeMilliseconds: s.Time.Milliseconds(),
		SolverCalls:      s.Solver.Checks,
		// Echo the values the scheduler resolved, not the raw config.
		SearchStrategy:     cfg.ResolvedStrategy(),
		ExploreParallelism: cfg.ResolvedExploreParallelism(),
		Solver:             s.Solver,
		Merge:              s.Merge,
	}
}

// Result is the outcome of a DiSE analysis of two program versions.
type Result struct {
	// Paths are the affected path conditions of the modified version.
	Paths []PathInfo
	// Stats is the cost of the directed symbolic execution.
	Stats Stats
	// ChangedNodes counts CFG nodes marked changed/added/removed by the
	// differential analysis.
	ChangedNodes int
	// AffectedConditionalLines and AffectedWriteLines are the source lines
	// of the affected sets (ACN and AWN) in the modified version.
	AffectedConditionalLines []int
	AffectedWriteLines       []int

	internal *idise.Result
	config   symexec.Config
	modProg  *ast.Program
	procName string
}

// PathConditions returns the rendered affected path conditions.
func (r *Result) PathConditions() []string {
	out := make([]string, len(r.Paths))
	for i, p := range r.Paths {
		out[i] = p.PathCondition
	}
	return out
}

// Analyze runs the full DiSE pipeline on two versions of procedure procName
// given as source text.
//
// Deprecated: use Analyzer.Analyze, which accepts a context and reuses a
// parse/CFG cache across calls.
func Analyze(baseSrc, modSrc, procName string, opts Options) (*Result, error) {
	return opts.analyzer().Analyze(context.Background(),
		Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: procName})
}

// AnalyzeInterprocedural runs DiSE over a whole multi-procedure program:
// both versions are inlined from the entry procedure (expanding every call,
// see internal/inline) and the intra-procedural pipeline analyzes the
// result. Requires an acyclic call graph and single-exit callees.
//
// Deprecated: use Analyzer.AnalyzeInterprocedural.
func AnalyzeInterprocedural(baseSrc, modSrc, entryProc string, opts Options) (*Result, error) {
	return opts.analyzer().AnalyzeInterprocedural(context.Background(), baseSrc, modSrc, entryProc)
}

// InlineProgram expands every call reachable from entryProc and returns the
// single-procedure program as pretty-printed source.
func InlineProgram(src, entryProc string) (string, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return "", err
	}
	flat, err := inline.Program(prog.AST, entryProc)
	if err != nil {
		return "", err
	}
	return ast.Pretty(flat), nil
}

// Summary is the outcome of full (traditional) symbolic execution.
type Summary struct {
	Paths []PathInfo
	Stats Stats

	engine  *symexec.Engine
	summary *symexec.Summary
}

// PathConditions returns the rendered path conditions.
func (s *Summary) PathConditions() []string {
	out := make([]string, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = p.PathCondition
	}
	return out
}

// Execute runs full symbolic execution of procedure procName — the paper's
// control technique ("Full Symbc").
//
// Deprecated: use Analyzer.Execute.
func Execute(src, procName string, opts Options) (*Summary, error) {
	return opts.analyzer().Execute(context.Background(), src, procName)
}

// ExecutionTree renders the symbolic execution tree (paper Fig. 1) of
// procedure procName.
//
// Deprecated: use Analyzer.ExecutionTree.
func ExecutionTree(src, procName string, opts Options) (string, error) {
	return opts.analyzer().ExecutionTree(context.Background(), src, procName)
}

// TestCase is a concrete invocation of the procedure under analysis,
// rendered as a call string (paper §5.2).
type TestCase struct {
	Call          string `json:"call"`
	PathCondition string `json:"path_condition"`
}

// Tests turns the summary's path conditions into concrete test inputs: each
// path's exploration witness, re-solved only when it fails its path
// condition.
func (s *Summary) Tests() []TestCase {
	return convertTests(testgen.NewGenerator(s.engine).Generate(s.summary))
}

// Tests turns the DiSE result's affected path conditions into concrete test
// inputs for the modified version. Each test renders the witness the
// exploration found for its path; a solver engine over the modified version
// is built only if some path needs re-solving.
func (r *Result) Tests() ([]TestCase, error) {
	var engine *symexec.Engine
	var err error
	g := &testgen.Generator{
		Proc: r.modProg.Proc(r.procName),
		Check: func(pc []sym.Expr) constraint.Result {
			if engine == nil && err == nil {
				engine, err = symexec.New(r.modProg, r.procName, r.config)
			}
			if err != nil {
				return constraint.Result{Unknown: true}
			}
			return engine.CheckPC(pc)
		},
	}
	tests := g.Generate(r.internal.Summary)
	if err != nil {
		return nil, err
	}
	return convertTests(tests), nil
}

func convertTests(ts []testgen.TestCase) []TestCase {
	out := make([]TestCase, len(ts))
	for i, tc := range ts {
		out[i] = TestCase{Call: tc.Call, PathCondition: tc.PCString}
	}
	return out
}

// Selection splits DiSE-generated tests against an existing suite (paper
// §5.2, Table 3): Selected tests already exist and can be re-used; Added
// tests are new and augment the suite.
type Selection struct {
	Selected []TestCase
	Added    []TestCase
}

// SelectAugment performs test case selection and augmentation by exact
// string comparison of rendered calls, as in the paper.
func SelectAugment(baseSuite, diseTests []TestCase) Selection {
	toInternal := func(ts []TestCase) []testgen.TestCase {
		out := make([]testgen.TestCase, len(ts))
		for i, tc := range ts {
			out[i] = testgen.TestCase{Call: tc.Call, PCString: tc.PathCondition}
		}
		return out
	}
	sel := testgen.SelectAugment(toInternal(baseSuite), toInternal(diseTests))
	return Selection{
		Selected: convertTests(sel.Selected),
		Added:    convertTests(sel.Added),
	}
}

// CFGDot renders the control flow graph of procedure procName in Graphviz
// DOT format (paper Fig. 2(b)).
//
// Deprecated: use Analyzer.CFGDot.
func CFGDot(src, procName string) (string, error) {
	return NewAnalyzer().CFGDot(src, procName)
}

// AffectedCFGDot renders the modified version's CFG with affected nodes
// highlighted.
//
// Deprecated: use Analyzer.AffectedCFGDot.
func AffectedCFGDot(baseSrc, modSrc, procName string, opts Options) (string, error) {
	return opts.analyzer().AffectedCFGDot(context.Background(), baseSrc, modSrc, procName)
}

// EvaluationArtifacts lists the names of the built-in evaluation artifacts
// (the paper's WBS, ASW and OAE re-creations).
func EvaluationArtifacts() []string {
	var out []string
	for _, a := range artifacts.All() {
		out = append(out, a.Name)
	}
	return out
}

// EvaluationTables regenerates Table 2 and Table 3 of the paper for the
// named artifact ("ASW", "WBS" or "OAE") and returns their rendered forms.
//
// Deprecated: use Analyzer.EvaluationTables.
func EvaluationTables(artifact string, opts Options) (table2, table3 string, err error) {
	return opts.analyzer().EvaluationTables(context.Background(), artifact)
}

// artifactByName resolves an evaluation artifact for Analyzer.EvaluationTables.
func artifactByName(name string) (artifacts.Artifact, bool) { return artifacts.ByName(name) }

func errUnknownArtifact(name string) error {
	return fmt.Errorf("unknown artifact %q (have %v)", name, EvaluationArtifacts())
}
