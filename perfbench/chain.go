package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"dise"
)

// runChain drives the three artifact chains: per artifact NewSession(base),
// seed included, then Advance through v1..vN in order — 40 steps a round,
// the chains in a seeded order per round, closed loop, one client. An op is
// one Advance.
func runChain(cfg runConfig, rep *report) error {
	exp, err := loadExpected(cfg.root)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var (
		chains = artifactChains()
		order  func() []int
		an     *dise.Analyzer
		rec    *opRecorder
		create []float64
		// memoHits per step, to check that the traced re-drive replays
		// exactly what Session.Advance does.
		memoHits = map[string]int{}
	)
	// round runs the chains once in a new order, timing each op and
	// checking its output.
	round := func() error {
		for _, ci := range order() {
			c := chains[ci]
			start := time.Now()
			s, err := an.NewSession(ctx, dise.SessionRequest{InitialSrc: c.versions[0], Proc: c.proc})
			lat := since(start)
			create = append(create, lat)
			cfg.ref.after(lat)
			if err != nil {
				return fmt.Errorf("%s session: %w", c.name, err)
			}
			for i := 1; i < len(c.versions); i++ {
				key := c.stepKey(i)
				start := time.Now()
				res, err := s.Advance(ctx, c.versions[i])
				lat := since(start)
				rec.lat = append(rec.lat, lat)
				cfg.ref.after(lat)
				want, ok := exp.Chain[key]
				rec.check(key, err, func() outcome { return outcomeOf(res, 0) }, want, ok)
				if err == nil {
					memoHits[key] = res.Stats.Memo.MemoHits
				}
			}
		}
		return nil
	}
	// Set-up builds a fresh Analyzer and warms its caches with one round in
	// catalog order.
	order = catalogOrder(len(chains))
	an = dise.NewAnalyzer()
	rec = &opRecorder{}
	if err := round(); err != nil {
		return err
	}
	rec.merge(rep)
	if cfg.setupOnly {
		return nil
	}
	order = roundOrders(cfg.seed, len(chains))
	if cfg.trace {
		// Allocation counts come from one whole round right after set-up,
		// the same round in every run of a seed.
		rec, create = &opRecorder{lat: make([]float64, 0, 40)}, make([]float64, 0, len(chains))
		r0 := readRuntime()
		if err := round(); err != nil {
			return err
		}
		runtimeMetrics(rep, r0, readRuntime(), len(rec.lat))
		rec.merge(rep)
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	rec, create = &opRecorder{}, nil
	// Throughput counts the Advances' own time: the session creations
	// between chains run a full symbolic execution each, which would tie
	// this figure to exploration and solver speed.
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
	if v, err := percentile(create, 0.5); err != nil {
		rep.Extra["session_create_p50_ms"] = err.Error()
	} else {
		rep.Extra["session_create_p50_ms"] = v
	}
	if !cfg.trace {
		return nil
	}

	p := newPipeline(nil)
	trec := &opRecorder{}
	order = roundOrders(cfg.seed, len(chains))
	tracedRound := func() error {
		for _, ci := range order() {
			c := chains[ci]
			start := time.Now()
			s, err := p.createOp(c.versions[0], c.proc)
			cfg.ref.after(since(start))
			if err != nil {
				return fmt.Errorf("traced %s session: %w", c.name, err)
			}
			for i := 1; i < len(c.versions); i++ {
				key := c.stepKey(i)
				start := time.Now()
				a, err := p.advanceOp(s, c.versions[i])
				cfg.ref.after(since(start))
				if err == nil && a.summary.Stats.MemoHits != memoHits[key] {
					err = fmt.Errorf("%d memo hits, Session.Advance had %d", a.summary.Stats.MemoHits, memoHits[key])
				}
				want, ok := exp.Chain[key]
				trec.check("traced "+key, err, a.outcome, want, ok)
			}
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
	cfg.ref.begin()
	tRounds, err := region(seconds, tracedRound)
	f := cfg.ref.factor()
	if err != nil {
		return err
	}
	trec.merge(rep)
	var srcs [][2]string
	for _, c := range chains {
		for _, v := range c.versions {
			srcs = append(srcs, [2]string{v, c.proc})
		}
	}
	for i := 0; i < coldPasses; i++ {
		if err := p.coldPass(srcs); err != nil {
			return err
		}
	}
	ops := p.c.advances
	layerMetrics(rep, tr, p.c, ops)
	advanceNs := summarizeSpans(tr.snapshot(), spanAdvance).total[spanAdvance]
	overhead(rep, opsPerS, float64(ops)/(float64(advanceNs)/1e9)*f)
	rep.Extra["traced_rounds"] = tRounds
	if err := chainsOverHTTP(rep, exp, chains, tr); err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.root, ".bench_build", "results", "chain-artifacts.spans.jsonl"))
}

// chainsOverHTTP measures the service layer on this workload: the same
// chains, closed loop, through service.New(...).Handler() on a loopback
// listener wrapped in the span middleware (create, advances, delete per
// chain; one untraced-by-id warm-up round first). Every advance result is
// checked against the expected outputs.
func chainsOverHTTP(rep *report, exp *expected, chains []chain, tr *tracer) error {
	srv, err := startServer(tr)
	if err != nil {
		return err
	}
	defer srv.close()
	jobs := make([]svcJob, len(chains))
	for i, c := range chains {
		jobs[i] = svcJob{id: i, proc: c.proc, versions: c.versions}
	}
	srv.drive(jobs, nil, warmReqBase)
	depth := pollQueueDepth(srv.svc)
	samples := srv.drive(jobs, tr, 0)
	serviceLayer(rep, tr, samples, depth())
	rec := &opRecorder{}
	for _, s := range samples {
		c := chains[s.job]
		key := fmt.Sprintf("http %s step %d", c.name, s.step)
		var err error
		if s.err != "" || s.skipped {
			err = fmt.Errorf("%s", s.err)
		}
		if s.out == nil {
			rec.check(key, err, nil, outcome{}, true)
			continue
		}
		got := *s.out
		want, ok := exp.Chain[c.stepKey(s.step)]
		rec.check(key, err, func() outcome { return got }, want, ok)
	}
	rec.merge(rep)
	return nil
}
