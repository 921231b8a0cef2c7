package main

import (
	"time"

	"dise"
)

// region runs round until at least seconds have passed (always at least
// once, always whole rounds so every region holds the same op mix) and
// returns the rounds run.
func region(seconds float64, round func() error) (int, error) {
	start := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(start).Seconds() < seconds {
		if err := round(); err != nil {
			return rounds, err
		}
		rounds++
	}
	return rounds, nil
}

// cacheRatios reports the facade's parse/CFG and solved-prefix cache hit
// ratios between two snapshots of an Analyzer's counters.
func cacheRatios(rep *report, an *dise.Analyzer, measure func() error) error {
	c0, s0 := an.CacheStats(), an.SolverCacheStats()
	if err := measure(); err != nil {
		return err
	}
	c1, s1 := an.CacheStats(), an.SolverCacheStats()
	rep.Layers["facade.parse_cache_hit_ratio"] = metric{ratio(c1.Hits-c0.Hits, c1.Misses-c0.Misses), "ratio"}
	rep.Layers["constraint.prefix_cache_hit_ratio"] = metric{ratio(s1.Hits-s0.Hits, s1.Misses-s0.Misses), "ratio"}
	return nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// layerMetrics fills every per-layer metric from a traced region's spans and
// counters. Times are self times per op in ms (a span minus its children),
// counts are per op; a layer the workload does not reach reports 0. ops is
// the number of op-rooted span trees (one-shot requests and session
// advances); session creations are traced but not ops, except that
// constraint.stack_ms and constraint.unknown, kept as region totals, include
// them. The lang and cfg figures are per cold pass instead (see coldPass):
// the ops find every program in the cache.
func layerMetrics(rep *report, tr *tracer, c counters, ops int) {
	spans := tr.snapshot()
	lt := summarizeSpans(spans, spanOp, spanAdvance)
	adv := summarizeSpans(spans, spanAdvance)
	cold := summarizeSpans(spans, spanCold)
	n := float64(max(ops, 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	per := func(v int) float64 { return float64(v) / n }
	passes := float64(max(c.coldPasses, 1))
	set := func(name string, v float64, unit string) { rep.Layers[name] = metric{v, unit} }

	set("lang.parse_ms", float64(cold.self[spanParse])/1e6/passes, "ms")
	set("lang.parse_calls", float64(c.parseCalls)/passes, "count")
	set("cfg.build_ms", float64(cold.self[spanCFG])/1e6/passes, "ms")
	set("cfg.nodes", float64(c.cfgNodes)/passes, "count")
	set("diff.ms", ms(lt.self[spanDiff]), "ms")
	set("diff.changed_nodes", per(c.diffChanged), "count")
	set("dise.affected_ms", ms(lt.self[spanAffected]), "ms")
	set("dise.affected_nodes", per(c.affectedNodes), "count")
	set("symexec.new_ms", ms(lt.self[spanEngine]), "ms")
	set("symexec.explore_self_ms", ms(lt.self[spanExplore]), "ms")
	set("symexec.states", per(c.states), "count")
	set("symexec.infeasible", per(c.infeasible), "count")
	set("dise.paths", per(c.paths), "count")
	set("dise.pruned_states", per(c.pruned), "count")
	set("dise.unaffected_paths", per(c.unaffectedPaths), "count")
	set("dise.useful_path_ratio", float64(c.paths)/float64(max(c.paths+c.unaffectedPaths, 1)), "ratio")
	set("constraint.check_ms", ms(lt.self[spanCheck]), "ms")
	set("constraint.checks", per(lt.count[spanCheck]), "count")
	set("constraint.stack_ms", ms(tr.stackNs), "ms")
	set("constraint.unknown", per(tr.unknown), "count")
	set("memo.hits", per(c.memoHits), "count")
	set("memo.replayed_share", float64(c.memoReplayed)/float64(max(c.memoReplayed+c.memoLive, 1)), "ratio")
	set("memo.rekey_ms", ms(lt.self[spanRekey]), "ms")
	set("memo.enforce_ms", ms(lt.self[spanEnforce]), "ms")
	set("memo.trie_nodes", float64(c.trieNodes)/float64(max(c.advances, 1)), "count")
	set("memo.trie_bytes", float64(c.trieBytes)/float64(max(c.advances, 1)), "B")
	set("session.advance_self_ms", float64(adv.total[spanAdvance]-adv.total[spanCheck])/1e6/float64(max(c.advances, 1)), "ms")
	set("testgen.engine_ms", ms(lt.self[spanTestEngine]), "ms")
	set("testgen.generate_ms", ms(lt.self[spanGenerate]), "ms")
	set("testgen.tests", per(c.tests), "count")
	// An op's own self time is what no layer's span covers: the
	// benchmark's cache lookups and glue between the calls.
	set("op.self_ms", ms(lt.self[spanOp]+lt.self[spanAdvance]), "ms")
	set("op.ms", ms(lt.rootTotal), "ms")
	set("trace.attributed_share", 1-float64(lt.self[spanOp]+lt.self[spanAdvance])/float64(max(lt.rootTotal, 1)), "ratio")
	for _, name := range []string{"service.handler_ms", "service.client_overhead_ms",
		"service.queue_depth_max", "service.rejected"} {
		if _, ok := rep.Layers[name]; !ok {
			unit := "ms"
			if name == "service.queue_depth_max" || name == "service.rejected" {
				unit = "count"
			}
			set(name, 0, unit)
		}
	}
}

// overhead reports the traced run's throughput loss against the untraced
// run on the same inputs, both at reference speed.
func overhead(rep *report, untracedOpsPerS, tracedOpsPerS float64) {
	share := 0.0
	if untracedOpsPerS > 0 {
		share = 1 - tracedOpsPerS/untracedOpsPerS
	}
	rep.Layers["trace.overhead_share"] = metric{share, "ratio"}
	rep.Extra["traced_ops_per_s"] = tracedOpsPerS
}
