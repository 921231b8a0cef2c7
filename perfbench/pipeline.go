package main

import (
	"fmt"

	"dise/internal/cfg"
	"dise/internal/constraint"
	"dise/internal/diff"
	idise "dise/internal/dise"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/lang/types"
	"dise/internal/memo"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

// Span names of the memo layer, recorded only by the traced session steps.
const (
	spanRekey   = "memo.rekey"   // MemoSignature + Rekey/Invalidate + BeginStep
	spanEnforce = "memo.enforce" // Tree.Enforce after a run
)

// pipeline is the traced re-drive: it sends a workload's inputs through the
// layers' own public functions, in the order the facade (the root dise
// package) calls them, with a span around each call. Its parse/CFG cache
// mirrors the facade's, so cache hits and misses fall where the Analyzer's
// do. Results are checked against the same expected outputs as the
// Analyzer's.
type pipeline struct {
	tr    *tracer
	conf  symexec.Config
	progs map[string]*prepared
	req   int // request id of the current op's spans

	c counters
}

// beginOp opens the root span of a new request.
func (p *pipeline) beginOp(name string) int {
	p.req++
	p.tr.setReq(p.req)
	return p.tr.begin(name)
}

// counters are the layers' work counts over a traced region.
type counters struct {
	parseCalls, cfgNodes, diffChanged, affectedNodes   int
	states, infeasible, paths, pruned, unaffectedPaths int
	tests                                              int
	memoHits, memoReplayed, memoLive                   int
	trieNodes                                          int
	trieBytes                                          int64
	advances, coldPasses                               int
}

// prepared is one parsed and type-checked source with its CFGs.
type prepared struct {
	prog   *ast.Program
	graphs map[string]*cfg.Graph
}

// version is one resolved program version of a request.
type version struct {
	prog  *ast.Program
	proc  *ast.Procedure
	graph *cfg.Graph
}

func newPipeline(tr *tracer) *pipeline {
	return &pipeline{
		tr: tr,
		conf: symexec.Config{
			SolverBackend: timedBackendName,
			SolverCache:   constraint.NewPrefixCache(0),
		},
		progs: map[string]*prepared{},
	}
}

// resolve is the facade's cache lookup: parse and type-check on a miss,
// build and precompute the procedure's CFG on first use.
func (p *pipeline) resolve(src, proc string) (version, error) {
	e, ok := p.progs[src]
	if !ok {
		pid := p.tr.begin(spanParse)
		prog, err := parser.Parse(src)
		if err == nil {
			_, err = types.Check(prog)
		}
		p.tr.end(pid)
		if err != nil {
			return version{}, err
		}
		p.c.parseCalls++
		e = &prepared{prog: prog, graphs: map[string]*cfg.Graph{}}
		p.progs[src] = e
	}
	pr := e.prog.Proc(proc)
	if pr == nil {
		return version{}, fmt.Errorf("procedure %q not found", proc)
	}
	g, ok := e.graphs[proc]
	if !ok {
		cid := p.tr.begin(spanCFG)
		g = cfg.Build(pr)
		g.Precompute()
		p.tr.end(cid)
		p.c.cfgNodes += g.Size()
		e.graphs[proc] = g
	}
	return version{prog: e.prog, proc: pr, graph: g}, nil
}

// coldPasses is the number of cold passes a traced run makes after its
// traced region.
const coldPasses = 10

// coldPass resolves every (source, procedure) with an empty cache under one
// root span: the parses, type checks and CFG builds that the warm ops find
// in the cache, so the lang and cfg layers are measured on the artifact
// workloads too. The warm cache is back in place afterwards.
func (p *pipeline) coldPass(srcs [][2]string) error {
	warm := p.progs
	p.progs = map[string]*prepared{}
	defer func() { p.progs = warm }()
	id := p.beginOp(spanCold)
	defer p.tr.end(id)
	for _, s := range srcs {
		if _, err := p.resolve(s[0], s[1]); err != nil {
			return err
		}
	}
	p.c.coldPasses++
	return nil
}

// analysis is the outcome of one traced analysis.
type analysis struct {
	summary  *symexec.Summary
	affected *idise.Affected
	tests    int
}

func (a analysis) outcome() outcome {
	return outcome{
		Paths:        len(a.summary.Paths),
		PCDigest:     pcDigest(a.summary.PathConditions()),
		ACNLines:     nonNil(a.affected.ACNLines()),
		AWNLines:     nonNil(a.affected.AWNLines()),
		ChangedNodes: a.affected.ChangedNodes,
		Tests:        a.tests,
	}
}

// direct is diff → affected sets → directed exploration on an engine over
// next, the core of Analyze and Session.Advance.
func (p *pipeline) direct(prev, next version, d *diff.Result, engine *symexec.Engine) analysis {
	id := p.tr.begin(spanAffected)
	aff := idise.ComputeAffected(prev.graph, engine.Graph, d, idise.Options{})
	p.tr.end(id)
	id = p.tr.begin(spanExplore)
	runner := idise.NewRunner(engine, aff)
	sum := runner.Run()
	p.tr.end(id)

	st := sum.Stats
	p.c.diffChanged += aff.ChangedNodes
	p.c.affectedNodes += aff.Size()
	p.c.states += st.StatesExplored
	p.c.infeasible += st.InfeasibleBranches
	p.c.paths += len(sum.Paths)
	p.c.pruned += runner.PruneStats.PrunedStates
	p.c.unaffectedPaths += runner.PruneStats.UnaffectedPaths
	p.c.memoHits += st.MemoHits
	p.c.memoReplayed += st.MemoStatesReplayed
	p.c.memoLive += st.MemoStatesLive
	return analysis{summary: sum, affected: aff}
}

func (p *pipeline) diff(prev, next version) *diff.Result {
	id := p.tr.begin(spanDiff)
	defer p.tr.end(id)
	return diff.Procedures(prev.proc, next.proc)
}

func (p *pipeline) engine(v version, tree *memo.Tree) (*symexec.Engine, error) {
	id := p.tr.begin(spanEngine)
	defer p.tr.end(id)
	conf := p.conf
	conf.Memo = tree
	return symexec.NewPrepared(v.prog, v.proc, v.graph, conf)
}

// pairOp is one traced one-shot request: what Analyzer.Analyze and, with
// tests set, Result.Tests do for it.
func (p *pipeline) pairOp(req pair, tests bool) (analysis, error) {
	op := p.beginOp(spanOp)
	defer p.tr.end(op)
	base, err := p.resolve(req.base, req.proc)
	if err != nil {
		return analysis{}, err
	}
	mod, err := p.resolve(req.mod, req.proc)
	if err != nil {
		return analysis{}, err
	}
	engine, err := p.engine(mod, nil)
	if err != nil {
		return analysis{}, err
	}
	a := p.direct(base, mod, p.diff(base, mod), engine)
	if !tests {
		return a, nil
	}
	id := p.tr.begin(spanTestEngine)
	te, err := symexec.New(mod.prog, req.proc, p.conf)
	p.tr.end(id)
	if err != nil {
		return analysis{}, err
	}
	id = p.tr.begin(spanGenerate)
	a.tests = len(testgen.NewGenerator(te).Generate(a.summary))
	p.tr.end(id)
	p.c.tests += a.tests
	return a, nil
}

// session is the traced counterpart of dise.Session: the same memo-trie
// bookkeeping, step by step, through internal/memo's public API.
type session struct {
	proc    string
	prev    version
	prevSig string
	tree    *memo.Tree
}

// createOp is what Analyzer.NewSession does: resolve the initial version
// and record a full symbolic execution of it into a fresh trie.
func (p *pipeline) createOp(src, proc string) (*session, error) {
	op := p.beginOp(spanCreate)
	defer p.tr.end(op)
	v, err := p.resolve(src, proc)
	if err != nil {
		return nil, err
	}
	s := &session{proc: proc, prev: v, tree: &memo.Tree{}}
	s.tree.BeginStep()
	engine, err := p.engine(v, s.tree)
	if err != nil {
		return nil, err
	}
	id := p.tr.begin(spanSeedExplore)
	engine.RunFull()
	p.tr.end(id)
	s.prevSig = engine.MemoSignature()
	id = p.tr.begin(spanEnforce)
	s.tree.Enforce()
	p.tr.end(id)
	return s, nil
}

// advanceOp is what Session.Advance does for one step.
func (p *pipeline) advanceOp(s *session, src string) (analysis, error) {
	op := p.beginOp(spanAdvance)
	defer p.tr.end(op)
	next, err := p.resolve(src, s.proc)
	if err != nil {
		return analysis{}, err
	}
	d := p.diff(s.prev, next)
	engine, err := p.engine(next, s.tree)
	if err != nil {
		return analysis{}, err
	}
	id := p.tr.begin(spanRekey)
	sig := engine.MemoSignature()
	if s.prevSig != "" && s.prevSig != sig {
		s.tree.Invalidate()
	} else {
		corr := d.Correspondence().BaseToMod
		corr[cfg.StableKeyBegin] = cfg.StableKeyBegin
		corr[cfg.StableKeyEnd] = cfg.StableKeyEnd
		corr[cfg.StableKeyError] = cfg.StableKeyError
		s.tree.Rekey(corr)
	}
	s.tree.BeginStep()
	p.tr.end(id)
	a := p.direct(s.prev, next, d, engine)
	id = p.tr.begin(spanEnforce)
	s.tree.Enforce()
	p.tr.end(id)
	s.prev, s.prevSig = next, sig
	p.c.trieNodes += s.tree.Size()
	p.c.trieBytes += s.tree.Bytes()
	p.c.advances++
	return a, nil
}
