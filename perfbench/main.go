// Command perfbench is the repository's benchmark. It drives two seeded
// workloads through the public entry points — dise.Analyzer and
// dise.Session, and in the traced run the service's HTTP handler — checks
// every output against perfbench/expected.json, and prints every metric by
// name with its unit. Its last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
// -trace 1 the run also re-drives the same inputs through the layers' own
// public functions with spans recorded by this package, and reports the
// per-layer metrics. The end-to-end timings, ops_per_s and setup_s, are
// scaled to reference speed by a fixed kernel timed between the ops, so a
// drift in the host's speed does not read as a change in the program (see
// hostref.go); the raw figures sit beside them in the report. Run it from
// the repository root through run.sh:
//
//	bash perfbench/run.sh --workload oneshot-artifacts --seed 7 --seconds 30 --trace 0
//
// Each run writes its full report (every metric with its sample counts,
// host provenance, the exact-counter list) and, when traced, its spans
// under .bench_build/results/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many fresh processes a run times through its
// workload's set-up; setup_s is the median.
const setupRepeats = 7

// setupRefTime is how long the reference kernel runs before and after each
// timed set-up.
const setupRefTime = 100 * time.Millisecond

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run.
type report struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the end-to-end metrics of BENCHMARK.json and Layers the
	// per-layer ones (traced runs only); the final JSON line carries the
	// first without -trace and the second with it. Extra holds the
	// workload-specific end-to-end figures and the percentiles with their
	// sample counts.
	Metrics    map[string]metric `json:"metrics"`
	Layers     map[string]metric `json:"layers,omitempty"`
	Extra      map[string]any    `json:"extra"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Provenance provenance        `json:"provenance"`
	Exact      []string          `json:"exact_counters"`
	Supersedes []string          `json:"supersedes"`
}

type runConfig struct {
	root    string
	seed    int64
	seconds float64
	trace   bool
	// setupOnly makes the workload return right after its set-up.
	setupOnly bool
	// ref, the reference kernel, runs between timed ops; nil in set-up
	// processes, which run it not at all.
	ref *hostRef
}

// workload runs one workload and fills rep.
type workload func(cfg runConfig, rep *report) error

var workloads = map[string]workload{
	"oneshot-artifacts": runOneshot,
	"chain-artifacts":   runChain,
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root")
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "seconds to measure")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced re-drive")
		doRecord = flag.Bool("record", false, "recompute "+expectedFile+" and exit")
		onlySet  = flag.Bool("setup-only", false, "set the workload up, then exit (how setup_s is timed)")
	)
	flag.Parse()
	if *doRecord {
		if err := record(*root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0, -trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	cfg := runConfig{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1, setupOnly: *onlySet}
	if cfg.setupOnly {
		rep := &report{Metrics: map[string]metric{}, Extra: map[string]any{}}
		if err := run(cfg, rep); err != nil || rep.Failed > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err, rep.Mismatches)
			os.Exit(1)
		}
		return
	}
	ref, err := newHostRef()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.ref = ref
	rep := &report{
		Workload:   *name,
		Metrics:    map[string]metric{},
		Layers:     map[string]metric{},
		Extra:      map[string]any{},
		Provenance: provenanceOf(cfg),
		Exact:      exactCounters,
		Supersedes: legacyRows[*name],
	}
	if err := setupTimes(cfg, *name, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := run(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.Correct = rep.Failed == 0 && len(rep.Mismatches) == 0
	rep.Extra["failed_share"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	if err := emit(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints every metric by name, writes the full report, and prints the
// final JSON line.
func emit(cfg runConfig, rep *report) error {
	out := bufio.NewWriter(os.Stdout)
	for _, set := range []map[string]metric{rep.Metrics, rep.Layers} {
		for _, k := range sortedKeys(set) {
			fmt.Fprintf(out, "%-34s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	for _, k := range sortedKeys(rep.Extra) {
		b, err := json.Marshal(rep.Extra[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-34s %s\n", k, b)
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintln(out, "MISMATCH", m)
	}
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, cfg.seed, b2i(cfg.trace)))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(out, "report", path)
	final := rep.Metrics
	if cfg.trace {
		final = rep.Layers
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, final})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(last))
	return out.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// since returns the milliseconds elapsed since t.
func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// opRecorder collects a region's op latencies and output checks.
type opRecorder struct {
	lat        []float64 // ms
	attempted  int
	failed     int
	mismatches []string
}

// check counts one op and compares its outcome with the expected one; a
// nil got means the op returns nothing to compare (only err counts).
func (r *opRecorder) check(key string, err error, got func() outcome, want outcome, ok bool) {
	r.attempted++
	msg := ""
	switch {
	case err != nil:
		msg = fmt.Sprintf("%s: %v", key, err)
	case got == nil:
	case !ok:
		msg = fmt.Sprintf("%s: no expected output", key)
	default:
		if g := got(); !g.equal(want) {
			msg = fmt.Sprintf("%s: got %v, want %v", key, g, want)
		}
	}
	if msg != "" {
		r.failed++
		if len(r.mismatches) < 10 {
			r.mismatches = append(r.mismatches, msg)
		}
	}
}

func (r *opRecorder) merge(rep *report) {
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	rep.Mismatches = append(rep.Mismatches, r.mismatches...)
}

// latencyMetrics reports percentiles of the region's op latencies with
// their sample counts, or why a percentile lacks the samples to be
// reported. They are not end-to-end metrics of BENCHMARK.json: the artifact
// workloads repeat a fixed mix of 40 ops whose latencies form clusters
// (WBS, ASW, small and large OAE pairs), and p50 and p90 fall on the edges
// between clusters, where one noisy op moves them by half.
func latencyMetrics(rep *report, lat []float64, ps ...float64) {
	for _, p := range ps {
		name := fmt.Sprintf("op_p%d_ms", int(p*100))
		if v, err := percentile(lat, p); err != nil {
			rep.Extra[name] = err.Error()
		} else {
			rep.Extra[name] = v
		}
	}
}

// runtimeSample reads the runtime counters the runtime layer reports.
type runtimeSample struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// runtimeMetrics reports allocation and GC figures between two samples.
func runtimeMetrics(rep *report, a, b runtimeSample, ops int) {
	n := float64(max(ops, 1))
	rep.Layers["runtime.allocs_per_op"] = metric{float64(b.allocs-a.allocs) / n, "count"}
	rep.Layers["runtime.bytes_per_op"] = metric{float64(b.bytes-a.bytes) / n, "B"}
	share := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		share = (b.gcCPU - a.gcCPU) / cpu
	}
	rep.Layers["runtime.gc_cpu_share"] = metric{share, "ratio"}
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// setupTimes runs this program setupRepeats times with -setup-only and
// records the median wall time, from process start to exit, as setup_s,
// scaled to reference speed by the kernel run before and after each. Each
// set-up starts in a fresh process, with nothing warm from an earlier one:
// not the runtime's heap, nor the process-wide intern table.
func setupTimes(cfg runConfig, name string, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var ts []float64
	cfg.ref.begin()
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(exe, "-root", cfg.root, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10), "-setup-only")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cfg.ref.sample(setupRefTime)
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	cfg.ref.sample(setupRefTime)
	f := cfg.ref.factor()
	rep.Metrics["setup_s"] = metric{median(ts) / f, "s"}
	rep.Extra["setup_s_raw"] = median(ts)
	rep.Extra["setup_host_factor"] = f
	rep.Extra["setup_s_samples"] = ts
	return nil
}
