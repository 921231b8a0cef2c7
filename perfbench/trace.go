package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"dise/internal/constraint"
	"dise/internal/sym"
)

// Span names. A layer's spans are recorded by this benchmark around its calls
// into the layer's public functions; nothing inside the program is traced.
const (
	spanOp          = "op"              // one workload op (the root of its tree)
	spanCold        = "facade.cold"     // a cold pass: every source parsed and built with an empty cache
	spanParse       = "lang.parse"      // parser.Parse + types.Check
	spanCFG         = "cfg.build"       // cfg.Build + Precompute
	spanDiff        = "diff"            // diff.Procedures
	spanAffected    = "dise.affected"   // dise.ComputeAffected
	spanEngine      = "symexec.new"     // symexec.NewPrepared for the analysis
	spanExplore     = "symexec.explore" // dise.NewRunner(...).Run(), pruner included
	spanCheck       = "constraint.check"
	spanTestEngine  = "testgen.engine"   // symexec.New inside Result.Tests
	spanGenerate    = "testgen.generate" // testgen.NewGenerator(...).Generate
	spanCreate      = "session.create"   // Analyzer.NewSession, seed included
	spanAdvance     = "session.advance"  // Session.Advance
	spanHandler     = "service.handler"  // the service's Handler, inside the benchmark's middleware
	spanClient      = "service.client"   // one HTTP round trip seen by the client
	spanSeedExplore = "symexec.seed"     // full symbolic execution of a session seed
)

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. Spans of one goroutine nest through open (a
// stack); spans recorded from other goroutines (the service middleware) go
// through add with an explicit parent. A nil *tracer records nothing, which
// is how untraced runs call the same code.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  []int // stack of open span IDs of the driving goroutine
	req   int   // request id stamped on spans opened by begin

	// stackNs is the time spent in Push/Pop/Assert of the timing backend;
	// too frequent for a span each, it is kept as a total. unknown counts
	// Checks that returned Unknown.
	stackNs int64
	unknown int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open span and returns its
// ID, to be passed to end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: start, End: -1})
	t.open = append(t.open, id)
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = stop
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// setReq sets the request id stamped on spans opened from now on.
func (t *tracer) setReq(req int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req = req
	t.mu.Unlock()
}

// add records a finished span from any goroutine.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

func (t *tracer) addStack(d time.Duration) {
	t.mu.Lock()
	t.stackNs += int64(d)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its direct children. Children may overlap each other
// (concurrent work) and may stick out of the parent; only the union of
// their intervals clipped to the parent counts.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - coveredBy(s.Start, s.End, children[s.ID])
	}
	return out
}

// coveredBy returns the length of [lo, hi) covered by the union of the
// children's intervals.
func coveredBy(lo, hi int64, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			total += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTimes sums, per span name, the total and self nanoseconds of every
// span in the trees whose root is named one of roots.
type layerTimes struct {
	total, self map[string]int64
	count       map[string]int
	rootTotal   int64 // summed root durations
	roots       int
}

func summarizeSpans(spans []span, roots ...string) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// rootOf walks parents; memoized so the walk is linear overall.
	rootOf := map[int]int{}
	var find func(id int) int
	find = func(id int) int {
		if r, ok := rootOf[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if s.Parent >= 0 {
			r = find(s.Parent)
		}
		rootOf[id] = r
		return r
	}
	for _, s := range spans {
		if !slices.Contains(roots, byID[find(s.ID)].Name) {
			continue
		}
		lt.total[s.Name] += s.End - s.Start
		lt.self[s.Name] += self[s.ID]
		lt.count[s.Name]++
		if s.Parent < 0 {
			lt.rootTotal += s.End - s.Start
			lt.roots++
		}
	}
	return lt
}

// timedBackendName is the registry name of the timing wrapper. The traced
// runs select it with dise.WithSolverBackend; untraced runs never do.
const timedBackendName = "perfbench-timed"

// activeTracer is the tracer the timing backend reports to. It is set for
// the duration of a traced run by the single goroutine that drives it.
var activeTracer struct {
	sync.Mutex
	t *tracer
}

func setActiveTracer(t *tracer) {
	activeTracer.Lock()
	activeTracer.t = t
	activeTracer.Unlock()
}

func currentTracer() *tracer {
	activeTracer.Lock()
	defer activeTracer.Unlock()
	return activeTracer.t
}

func init() {
	constraint.Register(timedBackendName, func(o constraint.Options) (constraint.Backend, error) {
		inner, err := constraint.New(constraint.BackendInterval, o)
		if err != nil {
			return nil, fmt.Errorf("timed backend: %w", err)
		}
		return &timedBackend{inner: inner, t: currentTracer()}, nil
	})
}

// timedBackend wraps the default interval backend: every Check becomes a
// span, and Push/Pop/Assert time is summed.
type timedBackend struct {
	inner constraint.Backend
	t     *tracer
}

func (b *timedBackend) stack(f func()) {
	if b.t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	b.t.addStack(time.Since(start))
}

func (b *timedBackend) Push()             { b.stack(b.inner.Push) }
func (b *timedBackend) Pop()              { b.stack(b.inner.Pop) }
func (b *timedBackend) Assert(c sym.Expr) { b.stack(func() { b.inner.Assert(c) }) }

func (b *timedBackend) Check() constraint.Result {
	id := b.t.begin(spanCheck)
	res := b.inner.Check()
	b.t.end(id)
	if res.Unknown && b.t != nil {
		b.t.mu.Lock()
		b.t.unknown++
		b.t.mu.Unlock()
	}
	return res
}

func (b *timedBackend) Model() map[string]int64 { return b.inner.Model() }
func (b *timedBackend) Caps() constraint.Caps   { return b.inner.Caps() }
func (b *timedBackend) Stats() constraint.Stats { return b.inner.Stats() }
func (b *timedBackend) ResetStats()             { b.inner.ResetStats() }
