// Package symexec implements symbolic execution of mini-language procedures
// over their control flow graphs.
//
// It provides the stepping primitives (a State carries the current CFG node,
// a symbolic environment mapping program variables to symbolic expressions,
// and a path condition; Step forks a state at conditional branches,
// consulting the constraint solver to prune infeasible branches exactly as
// described in §2.1 of the paper), an exploration scheduler that drains a
// worklist of states under a pluggable search strategy with optional
// intra-query parallelism (scheduler.go, frontier.go), and on top of those
// the full ("traditional") symbolic execution used as the control in the
// paper's evaluation (§4.2.2). The directed search of DiSE plugs into the
// same scheduler as a Pruner (see internal/dise).
//
// States are copy-on-write: forking a state at a branch shares the parent's
// environment, path condition and trace outright — an Env is a chunked
// vector of value slots over the engine's fixed variable layout, and a write
// replaces one chunk and the spine pointing to the chunks; the path
// condition and the trace are shared-tail lists extended by one cell per
// branch or statement and materialized only when a path is emitted — so the
// engine's inner loop allocates per *change*, not per fork, and a change
// costs the same however many variables are in scope.
package symexec

import (
	"maps"
	"slices"
	"strconv"
	"strings"

	"dise/internal/cfg"
	"dise/internal/memo"
	"dise/internal/sym"
)

// envChunkSize is the number of value slots in one Env chunk.
const envChunkSize = 8

// envChunk is a fixed-size run of an environment's value slots; a nil slot
// is an unbound variable. Chunks are immutable once published.
type envChunk [envChunkSize]sym.Expr

// envLayout is the slot order shared by every environment of one engine:
// distinct variable names, sorted, so slot order is name order. Read-only
// once built.
type envLayout struct {
	names []string
}

// newEnvLayout builds the layout of names (sorted and deduplicated in
// place).
func newEnvLayout(names []string) *envLayout {
	slices.Sort(names)
	return &envLayout{names: slices.Compact(names)}
}

// slot returns the slot index of name; nil-safe (the zero Env has no
// layout).
func (l *envLayout) slot(name string) (int, bool) {
	if l == nil {
		return 0, false
	}
	return slices.BinarySearch(l.names, name)
}

// bind returns the environment over l with the names of m bound to their
// values; every name of m must be in l, every other slot is unbound.
func (l *envLayout) bind(m map[string]sym.Expr) Env {
	n := (len(l.names) + envChunkSize - 1) / envChunkSize
	chunks := make([]envChunk, n)
	spine := make([]*envChunk, n)
	for i := range spine {
		spine[i] = &chunks[i]
	}
	for i, name := range l.names {
		chunks[i/envChunkSize][i%envChunkSize] = m[name]
	}
	return Env{layout: l, spine: spine}
}

// Env is a persistent symbolic environment: a vector of value slots over a
// fixed, name-sorted layout, cut into chunks of envChunkSize slots that a
// spine points to. The zero value is the empty environment. Set copies the
// one chunk it writes and the spine, sharing every other chunk with the
// receiver, so forked states share one Env value (a slice header copy) and
// a write costs one chunk regardless of how many variables are in scope.
// The chunk and the spine are separate allocations, so an environment keeps
// only its own chunks reachable, never one that a later write replaced: a
// path's environment does not pin its write history. Names are stored once,
// in the layout, not per state.
//
// An engine fixes one layout holding every variable its procedure can bind
// (parameters, globals and assigned locals); a local not yet assigned is an
// unbound slot, which Get reports absent. Setting a name outside the layout
// (environments built by NewEnv, say) re-lays the environment out once.
type Env struct {
	layout *envLayout
	spine  []*envChunk // len = ceil(len(layout.names) / envChunkSize)
}

// at returns the value in slot i (nil when unbound).
func (e Env) at(i int) sym.Expr { return e.spine[i/envChunkSize][i%envChunkSize] }

// Get returns the symbolic expression bound to name.
func (e Env) Get(name string) (sym.Expr, bool) {
	i, ok := e.layout.slot(name)
	if !ok {
		return nil, false
	}
	v := e.at(i)
	return v, v != nil
}

// Set returns a new environment with name bound to val. The receiver is
// unchanged; every chunk but the written one is shared (the slots hold
// interned, immutable expressions).
func (e Env) Set(name string, val sym.Expr) Env {
	i, ok := e.layout.slot(name)
	if !ok {
		return e.relayout(name).Set(name, val)
	}
	ci, off := i/envChunkSize, i%envChunkSize
	old := e.spine[ci]
	if old[off] == val {
		return e // no-op write: share the whole environment
	}
	chunk := new(envChunk)
	*chunk = *old
	chunk[off] = val
	spine := slices.Clone(e.spine)
	spine[ci] = chunk
	return Env{layout: e.layout, spine: spine}
}

// relayout returns the environment's bindings over a layout extended by
// name (unbound). It is the rare path for names the layout lacks.
func (e Env) relayout(name string) Env {
	m := make(map[string]sym.Expr, e.Len())
	e.Each(func(n string, v sym.Expr) { m[n] = v })
	var names []string
	if e.layout != nil {
		names = append(names, e.layout.names...)
	}
	return newEnvLayout(append(names, name)).bind(m)
}

// Len returns the number of bindings.
func (e Env) Len() int {
	n := 0
	e.Each(func(string, sym.Expr) { n++ })
	return n
}

// Each calls fn for every binding in name order.
func (e Env) Each(fn func(name string, val sym.Expr)) {
	if e.layout == nil {
		return
	}
	for i, name := range e.layout.names {
		if v := e.at(i); v != nil {
			fn(name, v)
		}
	}
}

// NewEnv builds an environment from a map (order-independent; its layout
// holds exactly the map's names).
func NewEnv(m map[string]sym.Expr) Env {
	return newEnvLayout(slices.Collect(maps.Keys(m))).bind(m)
}

// PathCond is a persistent path condition: a singly linked list growing at
// the tail end, so sibling branches share their common prefix as one chain
// and appending a branch constraint is a single small allocation. nil is the
// empty ("true") path condition. The conjunct order (root first) is
// recovered by Slice/AppendTo when a path is emitted or the solver stack is
// synced.
type PathCond struct {
	parent *PathCond
	c      sym.Expr
	n      int // conjunct count including c
}

// Len returns the number of conjuncts.
func (p *PathCond) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// Append returns the path condition extended by one conjunct. The receiver
// is shared, not copied.
func (p *PathCond) Append(c sym.Expr) *PathCond {
	return &PathCond{parent: p, c: c, n: p.Len() + 1}
}

// AppendTo materializes the conjuncts in path order (root first) into buf,
// reusing its backing array when it is large enough — the engine's stack
// sync runs on a scratch buffer and allocates nothing in steady state.
func (p *PathCond) AppendTo(buf []sym.Expr) []sym.Expr {
	n := p.Len()
	base := len(buf)
	if cap(buf) < base+n {
		grown := make([]sym.Expr, base, base+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:base+n]
	for q := p; q != nil; q = q.parent {
		n--
		buf[base+n] = q.c
	}
	return buf
}

// Slice materializes the conjuncts in path order as a fresh slice.
func (p *PathCond) Slice() []sym.Expr {
	if p == nil {
		return nil
	}
	return p.AppendTo(make([]sym.Expr, 0, p.n))
}

// Trace is a persistent statement trace: the IDs of the statement nodes a
// path executed, as a singly linked list growing at the tail end like
// PathCond. Forked states share the parent's list and a step appends one
// cell; nil is the empty trace. Slice recovers execution order when a path
// is emitted.
type Trace struct {
	parent *Trace
	id     int
	n      int // node count including id
}

// Len returns the number of nodes in the trace.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Append returns the trace extended by node id. The receiver is shared, not
// copied.
func (t *Trace) Append(id int) *Trace {
	return &Trace{parent: t, id: id, n: t.Len() + 1}
}

// Last returns the most recently executed node ID; the trace must be
// non-empty.
func (t *Trace) Last() int { return t.id }

// Prev returns the trace without its last node (nil for a one-node trace).
// Walking Prev from a trace visits its nodes newest first.
func (t *Trace) Prev() *Trace { return t.parent }

// Slice materializes the trace in execution order (root first) as a fresh
// slice; nil for the empty trace.
func (t *Trace) Slice() []int {
	if t == nil {
		return nil
	}
	out := make([]int, t.n)
	i := t.n
	for q := t; q != nil; q = q.parent {
		i--
		out[i] = q.id
	}
	return out
}

// State is a symbolic program state: a program location (CFG node), symbolic
// expressions for the program variables, and a path condition (paper §2.1).
type State struct {
	// Node is the next CFG node to execute.
	Node *cfg.Node
	// Env maps every program variable to its current symbolic expression.
	// It is copy-on-write: forked states share it until one of them writes.
	Env Env
	// PC is the path condition: the conjunction of branch constraints
	// accumulated along the path to this state, as a prefix-sharing list.
	PC *PathCond
	// Depth is the number of CFG nodes executed before reaching this state.
	Depth int
	// Trace is the sequence of statement-node IDs executed so far. Traces
	// power the affected-node-sequence analysis and the Table 1 rendering.
	// Forked states share the parent's list; a step appends one cell.
	Trace *Trace
	// Cover is the set of statement-node IDs (sorted, deduplicated) covered
	// by sibling states this state absorbed through merging (merge.go):
	// Trace continues the representative sibling's history, Cover keeps the
	// others' so coverage accounting (DiSE's affected-node bookkeeping)
	// still sees every node any constituent executed. Nil outside merged
	// runs. Forked states share the slice; merges build fresh ones.
	Cover []int
	// Err marks a state that reached the assertion-failure sink.
	Err bool
	// model is a satisfying assignment witnessing PC's feasibility. When a
	// branch constraint is already satisfied by the parent's model, the
	// child inherits it and no solver call is needed — the dominant case,
	// since exactly one branch outcome agrees with any given model.
	model map[string]int64
	// memo is the state's node in the session's execution-tree trie
	// (internal/memo), assigned by the parent's expansion; nil when the
	// engine runs without a memo (Config.Memo).
	memo *memo.Node
}

// MarkMemoPruned records on the state's memo-trie node, if any, that the
// pruner cut this state. Pruning decisions are change-dependent and
// order-sensitive, so they are recorded for observability only — the next
// version's search always re-decides them live (see internal/memo).
func (s *State) MarkMemoPruned() {
	if s.memo != nil {
		s.memo.Pruned = true
	}
}

// fork returns a successor of s at node. Everything is shared with the
// parent: Env and PC are copy-on-write (the caller extends them only for
// writes and branch constraints), Trace is extended by one cell at the
// append site (appendTraceIfStmt), and the witness model is immutable.
func (s *State) fork(node *cfg.Node) *State {
	return &State{
		Node:  node,
		Env:   s.Env,
		PC:    s.PC,
		Depth: s.Depth + 1,
		Trace: s.Trace,
		Cover: s.Cover,
		Err:   s.Err,
		model: s.model,
	}
}

// EnvString renders the environment deterministically: "x: X, y: Y + X".
func (s *State) EnvString() string {
	var b strings.Builder
	first := true
	s.Env.Each(func(name string, val sym.Expr) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(name)
		b.WriteString(": ")
		b.WriteString(val.String())
	})
	return b.String()
}

// PCString renders the path condition like the paper: "PC: true" when empty.
func (s *State) PCString() string { return sym.Conjoin(s.PC.Slice()) }

// String renders "Loc: n3 | x: X | PC: X > 0".
func (s *State) String() string {
	return "Loc: n" + strconv.Itoa(s.Node.ID) + " | " + s.EnvString() + " | PC: " + s.PCString()
}

// Path is one complete execution path produced by symbolic execution.
type Path struct {
	// PC is the full path condition of the path.
	PC []sym.Expr
	// PCString is the canonical rendering of PC (used for comparing path
	// conditions across techniques and versions).
	PCString string
	// Env is the final symbolic environment (the symbolic summary of the
	// path's effect), shared with the terminal state.
	Env Env
	// Trace is the sequence of statement CFG node IDs executed.
	Trace []int
	// Cover is the sorted set of statement CFG node IDs covered by sibling
	// paths that state merging folded into this one (nil outside merged
	// runs). Coverage accounting should consult Trace ∪ Cover.
	Cover []int
	// Err reports that the path ended in an assertion violation.
	Err bool
	// Model is the exploration's witness for PC: the satisfying assignment
	// of the symbolic inputs the terminal state carried (nil when none was
	// recorded). Test generation renders it instead of re-solving PC.
	Model map[string]int64
}

// Summary is the result of a symbolic execution run: the set of path
// conditions plus cost counters, i.e. the "symbolic summary" of §2.1.
type Summary struct {
	Paths []Path
	Stats Stats
}

// PathConditions returns the rendered path conditions in exploration order.
func (s *Summary) PathConditions() []string {
	out := make([]string, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = p.PCString
	}
	return out
}

// ErrorPaths returns only the paths that ended in assertion violations.
func (s *Summary) ErrorPaths() []Path {
	var out []Path
	for _, p := range s.Paths {
		if p.Err {
			out = append(out, p)
		}
	}
	return out
}
