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
// environment, path condition and trace outright — Env layers are immutable
// sorted slices replaced only on write, the path condition and the trace are
// shared-tail lists extended by one cell per branch or statement and
// materialized only when a path is emitted — so the engine's inner loop
// allocates per *change*, not per fork.
package symexec

import (
	"sort"
	"strconv"
	"strings"

	"dise/internal/cfg"
	"dise/internal/memo"
	"dise/internal/sym"
)

// Env is a persistent symbolic environment: an immutable, name-sorted slice
// of variable bindings. The zero value is the empty environment. Set returns
// a new environment sharing nothing mutable with the receiver, so forked
// states share one Env value (a slice header copy) and pay for a write
// exactly when they write — one exact-size slice allocation — instead of
// deep-copying a map on every fork.
type Env struct {
	entries []envEntry // sorted by name; immutable once published
}

type envEntry struct {
	name string
	val  sym.Expr
}

// search returns the index of name, or the insertion point with found=false.
func (e Env) search(name string) (int, bool) {
	lo, hi := 0, len(e.entries)
	//diselint:ignore interruptloop bounded: binary search halves the window each iteration
	for lo < hi {
		mid := (lo + hi) / 2
		if e.entries[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(e.entries) && e.entries[lo].name == name
}

// Get returns the symbolic expression bound to name.
func (e Env) Get(name string) (sym.Expr, bool) {
	i, ok := e.search(name)
	if !ok {
		return nil, false
	}
	return e.entries[i].val, true
}

// Set returns a new environment with name bound to val. The receiver is
// unchanged; unrelated bindings are shared by value (the entries hold
// interned, immutable expressions).
func (e Env) Set(name string, val sym.Expr) Env {
	i, ok := e.search(name)
	if ok {
		if e.entries[i].val == val {
			return e // no-op write: share the whole environment
		}
		entries := make([]envEntry, len(e.entries))
		copy(entries, e.entries)
		entries[i].val = val
		return Env{entries: entries}
	}
	entries := make([]envEntry, len(e.entries)+1)
	copy(entries, e.entries[:i])
	entries[i] = envEntry{name: name, val: val}
	copy(entries[i+1:], e.entries[i:])
	return Env{entries: entries}
}

// Len returns the number of bindings.
func (e Env) Len() int { return len(e.entries) }

// Each calls fn for every binding in name order.
func (e Env) Each(fn func(name string, val sym.Expr)) {
	for _, ent := range e.entries {
		fn(ent.name, ent.val)
	}
}

// NewEnv builds an environment from a map (order-independent; entries are
// sorted).
func NewEnv(m map[string]sym.Expr) Env {
	entries := make([]envEntry, 0, len(m))
	for name, val := range m {
		entries = append(entries, envEntry{name: name, val: val})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return Env{entries: entries}
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
