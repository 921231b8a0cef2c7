package solver

import (
	"slices"
	"sort"
	"strconv"

	"dise/internal/sym"
)

// DefaultDomain is the domain assigned to integer symbolic inputs unless the
// caller overrides it. It is non-negative, mirroring the Choco configuration
// under SPF that the paper's artifacts ran with: over this domain the
// motivating example's PedalCmd == 2 arms are infeasible, which is what
// yields the paper's 21 feasible paths (a full signed range yields 24 — see
// the domain ablation in the repository README and bench suite).
var DefaultDomain = Interval{Lo: 0, Hi: 1_000_000}

// BoolDomain is the 0/1 domain used for boolean symbolic inputs.
var BoolDomain = Interval{Lo: 0, Hi: 1}

// Options configures a Solver.
type Options struct {
	// NodeBudget caps search nodes per Check call; exceeding it yields an
	// Unknown result (treated as unsatisfiable by callers, as SPF does).
	// Zero means the default of 1<<16.
	NodeBudget int
	// Interrupt, when non-nil, is polled at every search node. A non-nil
	// return aborts the Check with an Unknown result, letting callers stop a
	// long-running solve promptly (e.g. on context cancellation).
	Interrupt func() error
}

// Stats counts solver work across Check calls.
type Stats struct {
	Calls        int // Check invocations
	Sat          int // satisfiable results
	Unsat        int // unsatisfiable results
	Unknown      int // budget exhausted
	SearchNodes  int // total branching nodes explored
	Propagations int // domain-tightening passes
}

// Result is the outcome of a Check call.
type Result struct {
	Sat     bool
	Unknown bool // budget exhausted before a verdict
	// Model maps every variable to a concrete value when Sat. The model is
	// deterministic: the search branches on the lowest candidate value first.
	Model map[string]int64
}

// Solver checks satisfiability of conjunctions of symbolic constraints over
// finite integer domains.
type Solver struct {
	opts  Options
	stats Stats
	// compiled caches the normalized form of constraint expressions, keyed
	// by node pointer. Symbolic expressions are immutable and hash-consed
	// (internal/sym), so a constraint re-built anywhere — a sibling state, a
	// later version of the program, a re-rendered branch condition — is the
	// same pointer and hits the same cache line; compilation amortizes
	// across the thousands of Check calls a symbolic execution run makes.
	compiled map[sym.Expr][]*constraint
	// propTpl caches, per constraint expression, the problem skeleton
	// PropagateDelta needs — variable indexing, constraint views, the
	// same-form unsat precheck, and each variable's position in the box.
	// The skeleton depends only on the expression (hash-consed, so
	// pointer-keyed) and the universe, not on the box it is propagated
	// against, and the interval backend propagates the same branch
	// constraints against many boxes as the exploration revisits sibling
	// subtrees.
	propTpl map[sym.Expr]*propTemplate
	// scratch holds the problem-local domains of one PropagateDelta call.
	scratch []Interval
}

// propTemplate is the reusable, read-only part of a PropagateDelta problem.
type propTemplate struct {
	varNames     []string
	views        []conView
	trivialUnsat bool
	// u is the universe uidx was resolved against; uidx[i] is the box
	// position of varNames[i], or -1 when the universe does not declare it.
	u    *Universe
	uidx []int
}

// Universe is a fixed, sorted set of variable names. A box over a universe
// is a []Interval holding one domain per name, in the universe's order, so
// snapshots copy a flat slice and propagation reads a domain by position.
type Universe struct {
	names []string
	index map[string]int
}

// NewUniverse returns the universe of the declared variables, sorted by
// name, together with the box of their domains.
func NewUniverse(domains map[string]Interval) (*Universe, []Interval) {
	u := &Universe{names: make([]string, 0, len(domains)), index: make(map[string]int, len(domains))}
	for n := range domains {
		u.names = append(u.names, n)
	}
	sort.Strings(u.names)
	box := make([]Interval, len(u.names))
	for i, n := range u.names {
		u.index[n] = i
		box[i] = domains[n]
	}
	return u, box
}

// position returns the box index of name, or -1 when it is undeclared.
func (u *Universe) position(name string) int {
	if i, ok := u.index[name]; ok {
		return i
	}
	return -1
}

// New returns a Solver.
func New(opts Options) *Solver {
	if opts.NodeBudget == 0 {
		opts.NodeBudget = 1 << 16
	}
	return &Solver{
		opts:     opts,
		compiled: map[sym.Expr][]*constraint{},
		propTpl:  map[sym.Expr]*propTemplate{},
	}
}

// Stats returns accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// ResetStats zeroes the counters.
func (s *Solver) ResetStats() { s.stats = Stats{} }

// Check decides satisfiability of the conjunction of constraints over a box
// of universe u: box[i] is the domain of u's i-th name, and variables that
// occur in the constraints but not in u get DefaultDomain. The problem it
// solves is sized by the variables its constraints mention, whatever the
// width of the box. A model covers every variable of u; the unconstrained
// ones sit at their box domain's Lo.
func (s *Solver) Check(constraints []sym.Expr, u *Universe, box []Interval) Result {
	s.stats.Calls++
	var compiled []*constraint
	for _, e := range constraints {
		compiled = append(compiled, s.compile(e)...)
	}
	p := newProblem(compiled)
	p.interrupt = s.opts.Interrupt
	domains := make([]Interval, len(p.varNames))
	undeclared := 0
	for i, name := range p.varNames {
		if j := u.position(name); j >= 0 {
			domains[i] = box[j]
		} else {
			domains[i] = DefaultDomain
			undeclared++
		}
	}
	var res Result
	if !p.trivialUnsat {
		budget := s.opts.NodeBudget
		final, unknown := p.search(domains, &s.stats, &budget)
		res.Unknown = unknown
		if final != nil {
			model := make(map[string]int64, len(box)+undeclared)
			for i, name := range u.names {
				model[name] = box[i].Lo
			}
			for i, name := range p.varNames {
				model[name] = final[i].Lo
			}
			res = Result{Sat: true, Model: model}
		}
	}
	switch {
	case res.Sat:
		s.stats.Sat++
	case res.Unknown:
		s.stats.Unknown++
	default:
		s.stats.Unsat++
	}
	return res
}

// PropagateDelta tightens the domains of the variables mentioned by the
// constraints to bounds consistency, without searching. base is a box of
// universe u; the returned box is base itself when nothing tightened, and
// otherwise a copy with the tightened domains written in, so callers
// propagating one new conjunct against a large box pay for the conjunct's
// variables plus one flat copy, and long runs of already-satisfied frames
// share one box. Variables u does not declare start at DefaultDomain and
// their tightening is not kept. ok is false when propagation proves the
// conjunction unsatisfiable over base (some domain became empty, or two
// constraints over the same linear form have an empty intersection).
//
// residual lists the atoms (after conjunction flattening) that the
// returned box does NOT entail: an atom missing from it is satisfied by
// every assignment inside the box, so a later search within the box may
// drop it. An atom over an undeclared variable is always residual, since
// the box does not record that variable's tightening. Deep assertion stacks
// reduce to short residual lists — the second half of what makes per-frame
// snapshots pay off in internal/constraint.
//
// The returned box is a sound over-approximation of the solution set:
// every assignment satisfying the constraints within base lies in it.
func (s *Solver) PropagateDelta(constraints []sym.Expr, u *Universe, base []Interval) (box []Interval, residual []sym.Expr, ok bool) {
	tpl := s.propTemplateFor(constraints, u)
	if tpl.trivialUnsat {
		return nil, nil, false
	}
	if len(tpl.views) == 0 {
		return base, nil, true
	}
	if cap(s.scratch) < len(tpl.uidx) {
		s.scratch = make([]Interval, len(tpl.uidx))
	}
	local := s.scratch[:len(tpl.uidx)]
	for i, j := range tpl.uidx {
		if j >= 0 {
			local[i] = base[j]
		} else {
			local[i] = DefaultDomain
		}
	}
	p := problem{varNames: tpl.varNames, views: tpl.views, interrupt: s.opts.Interrupt}
	if !p.propagate(local, &s.stats) {
		return nil, nil, false
	}
	for i := range p.views {
		v := &p.views[i]
		if p.truthOf(v, local) != truthTrue || tpl.undeclared(v) {
			residual = append(residual, v.c.expr)
		}
	}
	box = base
	copied := false
	for i, j := range tpl.uidx {
		if j < 0 || local[i] == base[j] {
			continue
		}
		if !copied {
			box, copied = slices.Clone(base), true
		}
		box[j] = local[i]
	}
	return box, residual, true
}

// undeclared reports whether a view mentions a variable outside the
// template's universe.
func (tpl *propTemplate) undeclared(v *conView) bool {
	for _, i := range v.vars {
		if tpl.uidx[i] < 0 {
			return true
		}
	}
	return false
}

// propTemplateFor resolves the problem skeleton for a constraint list. The
// single-expression case — the interval backend propagates one frame's one
// conjunct — is served from the pointer-keyed template cache; multi-expr
// lists (rare: concatenated residuals) are built ad hoc.
func (s *Solver) propTemplateFor(constraints []sym.Expr, u *Universe) *propTemplate {
	if len(constraints) == 1 {
		if tpl, ok := s.propTpl[constraints[0]]; ok && tpl.u == u {
			return tpl
		}
	}
	var compiled []*constraint
	for _, e := range constraints {
		compiled = append(compiled, s.compile(e)...)
	}
	tpl := &propTemplate{u: u}
	if len(compiled) > 0 {
		p := newProblem(compiled)
		tpl.varNames, tpl.views, tpl.trivialUnsat = p.varNames, p.views, p.trivialUnsat
		tpl.uidx = make([]int, len(p.varNames))
		for i, name := range p.varNames {
			tpl.uidx[i] = u.position(name)
		}
	}
	if len(constraints) == 1 {
		s.propTpl[constraints[0]] = tpl
	}
	return tpl
}

// conKind classifies compiled constraints.
type conKind int

const (
	conLinear conKind = iota // lin ⋈ 0 with ⋈ ∈ {<=, ==, !=}
	conOpaque                // arbitrary boolean expression
)

// constraint is a compiled, name-based constraint (cached on the Solver and
// shared across problems).
type constraint struct {
	kind conKind
	expr sym.Expr   // original expression (used for opaque evaluation)
	lin  sym.Linear // linear form, conLinear only
	op   sym.Op     // OpLE, OpEQ or OpNE, conLinear only
	vars []string   // sorted variable names mentioned
	// coeffs[i] is the coefficient of vars[i], conLinear only.
	coeffs []int64
}

// compile normalizes e into linear/opaque constraints, flattening top-level
// conjunctions, with caching.
func (s *Solver) compile(e sym.Expr) []*constraint {
	if cached, ok := s.compiled[e]; ok {
		return cached
	}
	var out []*constraint
	switch ex := e.(type) {
	case *sym.BoolConst:
		if !ex.V {
			// Trivially false: encode as 1 <= 0.
			lin := sym.NewLinear()
			lin.Const = 1
			out = append(out, finishLinear(e, lin, sym.OpLE))
		}
		// Trivially true compiles to nothing.
	case *sym.Var:
		// A bare boolean variable used as a constraint: v == 1.
		lin := sym.NewLinear()
		lin.Coeffs[ex.Name] = 1
		lin.Const = -1
		out = append(out, finishLinear(e, lin, sym.OpEQ))
	case *sym.Not:
		if v, ok := ex.X.(*sym.Var); ok {
			// !v: v == 0.
			lin := sym.NewLinear()
			lin.Coeffs[v.Name] = 1
			out = append(out, finishLinear(e, lin, sym.OpEQ))
		} else {
			out = append(out, opaque(e))
		}
	case *sym.Bin:
		switch {
		case ex.Op == sym.OpAnd:
			out = append(out, s.compile(ex.L)...)
			out = append(out, s.compile(ex.R)...)
		case ex.Op.IsComparison():
			if c, ok := linearize(ex); ok {
				out = append(out, c)
			} else {
				out = append(out, opaque(e))
			}
		default:
			out = append(out, opaque(e))
		}
	default:
		out = append(out, opaque(e))
	}
	s.compiled[e] = out
	return out
}

// linearize turns "L ⋈ R" with linear sides into a normalized constraint.
func linearize(e *sym.Bin) (*constraint, bool) {
	ll, ok := sym.LinearOf(boolToInt(e.L))
	if !ok {
		return nil, false
	}
	rl, ok := sym.LinearOf(boolToInt(e.R))
	if !ok {
		return nil, false
	}
	lin := sym.AddLinear(ll, sym.ScaleLinear(rl, -1)) // L - R
	switch e.Op {
	case sym.OpLT: // L - R < 0  ≡  L - R + 1 <= 0
		lin.Const++
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpLE:
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpGT: // L - R > 0  ≡  R - L + 1 <= 0
		lin = sym.ScaleLinear(lin, -1)
		lin.Const++
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpGE:
		lin = sym.ScaleLinear(lin, -1)
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpEQ:
		return finishLinear(e, lin, sym.OpEQ), true
	case sym.OpNE:
		return finishLinear(e, lin, sym.OpNE), true
	}
	return nil, false
}

// boolToInt rewrites boolean constants appearing as comparison operands
// (e.g. "b == true") into 0/1 integers so that boolean variables integrate
// with the linear machinery.
func boolToInt(e sym.Expr) sym.Expr {
	if b, ok := e.(*sym.BoolConst); ok {
		if b.V {
			return sym.One
		}
		return sym.Zero
	}
	return e
}

func finishLinear(e sym.Expr, lin sym.Linear, op sym.Op) *constraint {
	c := &constraint{kind: conLinear, expr: e, lin: lin, op: op, vars: lin.Vars()}
	c.coeffs = make([]int64, len(c.vars))
	for i, name := range c.vars {
		c.coeffs[i] = lin.Coeffs[name]
	}
	return c
}

func opaque(e sym.Expr) *constraint {
	return &constraint{kind: conOpaque, expr: e, vars: sym.Vars(e)}
}

// term is one resolved linear term: coeff * var(idx).
type term struct {
	idx   int
	coeff int64
}

// conView is a constraint resolved against a problem's variable indexing.
type conView struct {
	c     *constraint
	terms []term // conLinear only
	konst int64  // conLinear only
	vars  []int  // variable indices, all kinds
}

// problem is one Check instance. It indexes only the variables its
// constraints mention, sorted by name, so its cost tracks the constraints
// and not the width of the box they are checked against.
type problem struct {
	varNames []string
	views    []conView
	// trivialUnsat is set when same-form analysis found two linear
	// constraints over the same term vector with incompatible ranges
	// (e.g. X - Y >= 1 together with X - Y == 0). Bounds propagation alone
	// converges one unit per pass on such pairs — a pathology over wide
	// domains — so they are refuted during setup instead.
	trivialUnsat bool
	// interrupt aborts the search when it returns non-nil (Options.Interrupt).
	interrupt func() error
}

func newProblem(constraints []*constraint) *problem {
	p := &problem{}
	nVars, nTerms := 0, 0
	for _, c := range constraints {
		nVars += len(c.vars)
		nTerms += len(c.coeffs)
	}
	names := make([]string, 0, nVars)
	for _, c := range constraints {
		names = append(names, c.vars...)
	}
	sort.Strings(names)
	p.varNames = slices.Compact(names)
	// Each view's index and term lists are windows of two shared arrays.
	idx := make([]int, 0, nVars)
	terms := make([]term, 0, nTerms)
	p.views = make([]conView, 0, len(constraints))
	for _, c := range constraints {
		v := conView{c: c, konst: c.lin.Const}
		start := len(idx)
		for _, name := range c.vars {
			idx = append(idx, p.index(name))
		}
		v.vars = idx[start:len(idx):len(idx)]
		if c.kind == conLinear {
			// c.vars is sorted like p.varNames, so the terms come out in
			// index order.
			tstart := len(terms)
			for i, coeff := range c.coeffs {
				terms = append(terms, term{idx: v.vars[i], coeff: coeff})
			}
			v.terms = terms[tstart:len(terms):len(terms)]
		}
		p.views = append(p.views, v)
	}
	p.intersectForms()
	return p
}

// index returns the position of a variable the problem's constraints
// mention, or -1.
func (p *problem) index(name string) int {
	if i, ok := slices.BinarySearch(p.varNames, name); ok {
		return i
	}
	return -1
}

// intersectForms groups linear constraints by their (sign-normalized) term
// vector and intersects the ranges they impose on the shared form. An empty
// intersection proves unsatisfiability without any propagation.
func (p *problem) intersectForms() {
	type rng struct{ lo, hi int64 }
	linear := 0
	for i := range p.views {
		if p.views[i].c.kind == conLinear && len(p.views[i].terms) > 0 {
			linear++
		}
	}
	// A lone linear constraint has no form to share, so its range is
	// checked on its own without building keys.
	var forms map[string]rng
	if linear > 1 {
		forms = map[string]rng{}
	}
	for i := range p.views {
		v := &p.views[i]
		if v.c.kind != conLinear || len(v.terms) == 0 {
			continue
		}
		// Sign-normalize: make the first coefficient positive so that a
		// form and its negation share a key.
		sign := int64(1)
		if v.terms[0].coeff < 0 {
			sign = -1
		}
		r := rng{lo: -satBound, hi: satBound}
		var key []byte
		if forms != nil {
			key = make([]byte, 0, len(v.terms)*8)
			for _, t := range v.terms {
				key = strconv.AppendInt(key, int64(t.idx), 10)
				key = append(key, ':')
				key = strconv.AppendInt(key, sign*t.coeff, 10)
				key = append(key, ';')
			}
			if old, ok := forms[string(key)]; ok {
				r = old
			}
		}
		// Constraint: Σ terms + konst ⋈ 0, i.e. sign*Σ' + konst ⋈ 0 where
		// Σ' is the normalized form.
		switch v.c.op {
		case sym.OpLE: // sign*Σ' <= -konst
			if sign > 0 {
				r.hi = min2(r.hi, -v.konst)
			} else {
				r.lo = max2(r.lo, v.konst)
			}
		case sym.OpEQ: // sign*Σ' == -konst
			val := -v.konst * sign
			r.lo = max2(r.lo, val)
			r.hi = min2(r.hi, val)
		}
		if r.lo > r.hi {
			p.trivialUnsat = true
			return
		}
		if forms != nil {
			forms[string(key)] = r
		}
	}
}
