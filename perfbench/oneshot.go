package main

import (
	"context"
	"path/filepath"
	"time"

	"dise"
)

// runOneshot is the paper's Table 2/3 workflow: every (base, vN) pair of
// ASW, WBS and OAE through one shared warm Analyzer, closed loop, one
// client, in a seeded order per round. An op is Analyze followed by
// Result.Tests.
func runOneshot(cfg runConfig, rep *report) error {
	exp, err := loadExpected(cfg.root)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var (
		pairs = artifactPairs()
		order func() []int
		an    *dise.Analyzer
		rec   *opRecorder
	)
	// round runs the pairs once in a new order, timing each op and checking
	// its output.
	round := func() error {
		for _, i := range order() {
			p := pairs[i]
			start := time.Now()
			res, err := an.Analyze(ctx, dise.Request{BaseSrc: p.base, ModSrc: p.mod, Proc: p.proc})
			var tests []dise.TestCase
			if err == nil {
				tests, err = res.Tests()
			}
			lat := since(start)
			rec.lat = append(rec.lat, lat)
			cfg.ref.after(lat)
			want, ok := exp.Oneshot[p.key]
			rec.check(p.key, err, func() outcome { return outcomeOf(res, len(tests)) }, want, ok)
		}
		return nil
	}
	// Set-up builds a fresh Analyzer and warms its parse/CFG and prefix
	// caches with one round in catalog order.
	order = catalogOrder(len(pairs))
	an = dise.NewAnalyzer()
	rec = &opRecorder{}
	if err := round(); err != nil {
		return err
	}
	rec.merge(rep)
	if cfg.setupOnly {
		return nil
	}
	order = roundOrders(cfg.seed, len(pairs))
	if cfg.trace {
		// Allocation counts come from one whole round right after set-up,
		// the same round in every run of a seed.
		rec = &opRecorder{lat: make([]float64, 0, len(pairs))}
		r0 := readRuntime()
		if err := round(); err != nil {
			return err
		}
		runtimeMetrics(rep, r0, readRuntime(), len(pairs))
		rec.merge(rep)
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rec = &opRecorder{}
	tput := &rates{rec: rec}
	cfg.ref.begin()
	var rounds int
	err = cacheRatios(rep, an, func() (err error) {
		rounds, err = region(seconds, tput.wrap(round))
		return err
	})
	if err != nil {
		return err
	}
	rep.Metrics["peak_rss_mb"] = metric{peakRSSMB() - cfg.ref.residentMB(), "MB"}
	rec.merge(rep)
	latencyMetrics(rep, rec.lat, 0.5, 0.9)
	opsPerS := tput.report(rep, cfg.ref)
	rep.Extra["rounds"] = rounds
	if !cfg.trace {
		return nil
	}

	// Traced re-drive: the same pairs through the layers' own functions.
	// One untraced warm-up round fills the pipeline's caches first, as the
	// Analyzer's set-up did.
	p := newPipeline(nil)
	trec := &opRecorder{}
	order = roundOrders(cfg.seed, len(pairs))
	tracedRound := func() error {
		for _, i := range order() {
			pr := pairs[i]
			start := time.Now()
			a, err := p.pairOp(pr, true)
			lat := since(start)
			trec.lat = append(trec.lat, lat)
			cfg.ref.after(lat)
			want, ok := exp.Oneshot[pr.key]
			trec.check("traced "+pr.key, err, a.outcome, want, ok)
		}
		return nil
	}
	if err := tracedRound(); err != nil {
		return err
	}
	tr := newTracer()
	setActiveTracer(tr)
	defer setActiveTracer(nil)
	p.tr, p.c = tr, counters{}
	traced := &rates{rec: trec}
	cfg.ref.begin()
	tRounds, err := region(seconds, traced.wrap(tracedRound))
	tracedOpsPerS := median(traced.raw) * cfg.ref.factor()
	if err != nil {
		return err
	}
	trec.merge(rep)
	srcs := make([][2]string, 0, 2*len(pairs))
	for _, pr := range pairs {
		srcs = append(srcs, [2]string{pr.base, pr.proc}, [2]string{pr.mod, pr.proc})
	}
	for i := 0; i < coldPasses; i++ {
		if err := p.coldPass(srcs); err != nil {
			return err
		}
	}
	ops := tRounds * len(pairs)
	layerMetrics(rep, tr, p.c, ops)
	overhead(rep, opsPerS, tracedOpsPerS)
	return tr.write(filepath.Join(cfg.root, ".bench_build", "results", "oneshot-artifacts.spans.jsonl"))
}
