package symexec

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"dise/internal/sym"
)

// TestEnvCopyOnWrite pins the persistence contract of Env: Set never
// mutates the receiver, unrelated bindings are shared, and a no-op write
// (same interned expression) returns the identical environment.
func TestEnvCopyOnWrite(t *testing.T) {
	base := NewEnv(map[string]sym.Expr{
		"a": sym.V("A"),
		"b": sym.V("B"),
	})
	mod := base.Set("a", sym.Add(sym.V("A"), sym.One))
	if v, _ := base.Get("a"); v != sym.V("A") {
		t.Fatalf("Set mutated the receiver: base a = %s", v)
	}
	if v, _ := mod.Get("a"); v.String() != "A + 1" {
		t.Fatalf("mod a = %s, want A + 1", v)
	}
	if v, _ := mod.Get("b"); v != sym.V("B") {
		t.Fatalf("mod lost unrelated binding: b = %s", v)
	}
	// Inserting a new name grows by exactly one and keeps sorted order.
	grown := mod.Set("ab", sym.Zero)
	if grown.Len() != 3 || mod.Len() != 2 {
		t.Fatalf("lengths after insert: grown %d (want 3), mod %d (want 2)", grown.Len(), mod.Len())
	}
	var names []string
	grown.Each(func(name string, _ sym.Expr) { names = append(names, name) })
	if names[0] != "a" || names[1] != "ab" || names[2] != "b" {
		t.Fatalf("iteration order = %v, want [a ab b]", names)
	}
	// No-op write: binding the same canonical node shares the whole Env.
	same := mod.Set("a", sym.Add(sym.V("A"), sym.One))
	if len(same.spine) != len(mod.spine) || &same.spine[0] != &mod.spine[0] {
		t.Fatalf("no-op write did not share the environment")
	}
	if _, ok := base.Get("missing"); ok {
		t.Fatalf("Get of absent name reported present")
	}
}

// TestEnvOracle drives random Set/Get/Each/Len sequences against a plain map
// oracle, over a layout with bound and unbound slots plus names outside it
// (the re-layout path), and checks every earlier version is left intact.
func TestEnvOracle(t *testing.T) {
	vals := []sym.Expr{sym.Zero, sym.One, sym.V("A"), sym.V("B"), sym.Add(sym.V("A"), sym.One)}
	var inLayout, outside []string
	for i := 0; i < 20; i++ {
		inLayout = append(inLayout, fmt.Sprintf("v%02d", i))
	}
	for i := 0; i < 5; i++ {
		outside = append(outside, fmt.Sprintf("w%d", i))
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Half the layout starts bound (parameters), the rest unbound
		// (locals not yet assigned).
		oracle := map[string]sym.Expr{}
		for _, name := range inLayout[:10] {
			oracle[name] = vals[rng.Intn(len(vals))]
		}
		env := newEnvLayout(append([]string(nil), inLayout...)).bind(oracle)
		if seed%5 == 0 {
			env, oracle = Env{}, map[string]sym.Expr{} // the zero Env
		}
		type version struct {
			env  Env
			want map[string]sym.Expr
		}
		var history []version
		for step := 0; step < 200; step++ {
			pool := inLayout
			if rng.Intn(8) == 0 {
				pool = outside
			}
			name := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				got, ok := env.Get(name)
				want, wantOK := oracle[name]
				if ok != wantOK || got != want {
					t.Fatalf("seed %d step %d: Get(%s) = %v, %v; want %v, %v", seed, step, name, got, ok, want, wantOK)
				}
			default:
				val := vals[rng.Intn(len(vals))]
				next := env.Set(name, val)
				if old, ok := oracle[name]; ok && old == val {
					if next.layout != env.layout || len(next.spine) != len(env.spine) ||
						(len(env.spine) > 0 && &next.spine[0] != &env.spine[0]) {
						t.Fatalf("seed %d step %d: no-op Set(%s) did not share the environment", seed, step, name)
					}
				}
				history = append(history, version{env, oracle})
				oracle = copyExprMap(oracle)
				oracle[name] = val
				env = next
			}
			checkEnvAgainst(t, env, oracle)
		}
		for _, v := range history {
			checkEnvAgainst(t, v.env, v.want)
		}
	}
}

func copyExprMap(m map[string]sym.Expr) map[string]sym.Expr {
	out := make(map[string]sym.Expr, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkEnvAgainst asserts env binds exactly want, with Each in name order.
func checkEnvAgainst(t *testing.T, env Env, want map[string]sym.Expr) {
	t.Helper()
	if env.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", env.Len(), len(want))
	}
	var names []string
	env.Each(func(name string, val sym.Expr) {
		if want[name] != val {
			t.Fatalf("Each: %s = %v, want %v", name, val, want[name])
		}
		names = append(names, name)
	})
	if len(names) != len(want) || !sort.StringsAreSorted(names) {
		t.Fatalf("Each visited %v, want the %d bound names in order", names, len(want))
	}
}

var envSink Env

// TestEnvSetCostIsOneChunk is the allocation gate of the chunked Env: a
// write copies one chunk and the spine, so a Set on 512 bindings allocates
// no more than one on 8 bindings plus the spine's extra pointers.
func TestEnvSetCostIsOneChunk(t *testing.T) {
	setBytes := func(n int) int64 {
		m := map[string]sym.Expr{}
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("v%03d", i)] = sym.V(fmt.Sprintf("V%03d", i))
		}
		env, name := NewEnv(m), fmt.Sprintf("v%03d", n/2)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				envSink = env.Set(name, sym.Int(int64(i&1)))
			}
		})
		return r.AllocedBytesPerOp()
	}
	small, large := setBytes(8), setBytes(512)
	spine := int64(512/envChunkSize) * int64(unsafe.Sizeof((*envChunk)(nil)))
	if large > small+spine {
		t.Fatalf("Set allocates %d B on 512 bindings, %d B on 8: more than one chunk plus a %d B spine", large, small, spine)
	}
}

// TestEnvKeepsOnlyItsOwnChunks pins that an environment does not pin its
// write history: once the versions that held a chunk are gone, a later
// version that replaced the chunk lets it be collected, even after writes to
// other chunks in between. Paths that run deep loops keep their final
// environments in the summary, so history kept there would grow with depth.
func TestEnvKeepsOnlyItsOwnChunks(t *testing.T) {
	freed := make(chan struct{})
	latest := func() Env {
		m := map[string]sym.Expr{}
		for i := 0; i < 2*envChunkSize; i++ {
			m[fmt.Sprintf("v%02d", i)] = sym.V(fmt.Sprintf("V%02d", i))
		}
		e1 := NewEnv(m).Set("v00", sym.Int(1))
		runtime.SetFinalizer(e1.spine[0], func(*envChunk) { close(freed) })
		e2 := e1.Set(fmt.Sprintf("v%02d", envChunkSize), sym.Int(2))
		return e2.Set("v00", sym.Int(3))
	}()
	for range 20 {
		runtime.GC()
		select {
		case <-freed:
			if v, _ := latest.Get("v00"); v != sym.Int(3) {
				t.Fatalf("v00 = %v, want 3", v)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a chunk replaced by a later write stayed reachable from the latest environment")
}

// TestStateSizeClass pins State to the 112-byte allocation size class: every
// fork allocates one.
func TestStateSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(State{}); size > 112 {
		t.Fatalf("State is %d bytes, want at most 112", size)
	}
}

// TestPathCondSharedTail pins the path-condition list: appends share the
// tail, materialization restores root-first order, and AppendTo reuses a
// big-enough buffer without allocating.
func TestPathCondSharedTail(t *testing.T) {
	c1 := sym.Cmp(sym.OpGT, sym.V("X"), sym.Zero)
	c2 := sym.Cmp(sym.OpLT, sym.V("Y"), sym.Int(10))
	c3 := sym.Cmp(sym.OpEQ, sym.V("Z"), sym.One)

	var root *PathCond
	p1 := root.Append(c1)
	p2 := p1.Append(c2)
	sibling := p1.Append(c3)

	if root.Len() != 0 || p1.Len() != 1 || p2.Len() != 2 || sibling.Len() != 2 {
		t.Fatalf("lengths = %d/%d/%d/%d", root.Len(), p1.Len(), p2.Len(), sibling.Len())
	}
	if got := p2.Slice(); len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Fatalf("p2.Slice() = %v", got)
	}
	if got := sibling.Slice(); got[0] != c1 || got[1] != c3 {
		t.Fatalf("sibling.Slice() = %v", got)
	}
	if root.Slice() != nil {
		t.Fatalf("empty PC materialized non-nil")
	}
	// Buffer reuse: a second AppendTo into the same backing array must not
	// grow it.
	buf := make([]sym.Expr, 0, 8)
	out := p2.AppendTo(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatalf("AppendTo did not reuse the provided buffer")
	}
	out2 := sibling.AppendTo(out[:0])
	if &out2[0] != &out[0] || out2[1] != c3 {
		t.Fatalf("AppendTo reuse produced %v", out2)
	}
}

// TestForkSharesUntilWrite pins the copy-on-write fork: successor states
// share the parent's environment backing and trace list until a write or a
// statement append replaces them, and sibling branch states never see each
// other's extensions.
func TestForkSharesUntilWrite(t *testing.T) {
	src := `proc p(int x) {
		if (x > 0) {
			y = 1;
		} else {
			y = 2;
		}
	}`
	e := newEngine(t, src, "p", Config{})
	s := e.InitialState()
	cond := e.Successors(s)[0] // begin -> cond
	kids := e.Successors(cond) // the two branch arms
	if len(kids) != 2 {
		t.Fatalf("feasible branches = %d, want 2", len(kids))
	}
	tr, fl := kids[0], kids[1]
	if tr.PC.Len() != 1 || fl.PC.Len() != 1 {
		t.Fatalf("branch PC lengths = %d/%d, want 1/1", tr.PC.Len(), fl.PC.Len())
	}
	if tr.PC.Slice()[0] == fl.PC.Slice()[0] {
		t.Fatalf("sibling branches share the same branch constraint")
	}
	// Both writes proceed; each sibling sees only its own assignment.
	wt := e.Successors(tr)[0]
	wf := e.Successors(fl)[0]
	vt, _ := wt.Env.Get("y")
	vf, _ := wf.Env.Get("y")
	if vt != sym.One || vf != sym.Int(2) {
		t.Fatalf("y after writes = %s / %s, want 1 / 2", vt, vf)
	}
	if _, ok := tr.Env.Get("y"); ok {
		t.Fatalf("write leaked into the parent state's environment")
	}
}

// TestTraceSharedTail pins the persistent trace: the two branch arms of a
// conditional each add one cell in front of the trace they share with their
// parent, and Slice materializes execution order (root first) — the order
// Path.Trace has always had.
func TestTraceSharedTail(t *testing.T) {
	src := `proc p(int x) {
		y = 0;
		if (x > 0) {
			y = 1;
		} else {
			y = 2;
		}
	}`
	e := newEngine(t, src, "p", Config{})
	s := e.InitialState()
	write := e.Successors(s)[0]    // begin -> y = 0
	cond := e.Successors(write)[0] // y = 0 -> cond
	kids := e.Successors(cond)     // the two branch arms
	if len(kids) != 2 {
		t.Fatalf("feasible branches = %d, want 2", len(kids))
	}
	if cond.Trace.Len() != 1 || kids[0].Trace.Len() != 2 || kids[1].Trace.Len() != 2 {
		t.Fatalf("trace lengths = %d/%d/%d, want 1/2/2", cond.Trace.Len(), kids[0].Trace.Len(), kids[1].Trace.Len())
	}
	if kids[0].Trace == kids[1].Trace || kids[0].Trace.Prev() != cond.Trace || kids[1].Trace.Prev() != cond.Trace {
		t.Fatalf("branch arms do not share their parent's trace tail")
	}
	if kids[0].Trace.Last() != cond.Node.ID {
		t.Fatalf("arm trace ends at n%d, want the conditional n%d", kids[0].Trace.Last(), cond.Node.ID)
	}
	want := []int{write.Node.ID, cond.Node.ID}
	if got := kids[0].Trace.Slice(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Slice() = %v, want %v", got, want)
	}
	var empty *Trace
	if empty.Len() != 0 || empty.Slice() != nil {
		t.Fatalf("empty trace: Len %d, Slice %v", empty.Len(), empty.Slice())
	}

	summary := e.RunFull()
	for _, p := range summary.Paths {
		if len(p.Trace) != 3 || p.Trace[0] != want[0] || p.Trace[1] != want[1] {
			t.Fatalf("path trace %v, want %v followed by the arm's write", p.Trace, want)
		}
	}
}
