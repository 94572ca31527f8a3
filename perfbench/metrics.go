package main

import (
	"runtime"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, from untraced
// runs. An operation is a table cell or a daemon job.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median of setupRepeats set-ups
	{"wall_s", "s"},          // the whole sweep or job batch
	{"cell_done_p50_s", "s"}, // median operation latency; a sweep submits its cells at its start
	{"job_p50_s", "s"},       // median operation latency, submission to terminal
	{"job_tail_s", "s"},      // highest percentile with ≥10 samples beyond it
	{"jobs_per_s", "1/s"},    // completed operations per second of wall time
	{"peak_rss_mb", "MB"},    // peak resident memory of the process
}

// perLayer are the traced run's layer metrics: summed span time per
// layer, work counters, and the daemon's own counters from the untraced
// pass of the same invocation.
var perLayer = []metricDef{
	{"attack.proximity_s", "s"},
	{"attack.proximity_raw_s", "s"},
	{"attack.proximity_kpins_per_s", "kpins/s"},
	{"sim.hdoer_s", "s"},
	{"sim.hdoer_mpatterns_per_s", "Mpatterns/s"},
	{"sim.equiv_s", "s"},
	{"lec.check_s", "s"},
	{"lec.aig_nodes", "count"},
	{"lec.sweep_merges", "count"},
	{"lec.sat_pairs", "count"},
	{"lec.problem_clauses", "count"},
	{"locking.atpg_lock_s", "s"},
	{"locking.removed_gates", "count"},
	{"attack.satattack_s", "s"},
	{"attack.sat_queries", "count"},
	{"attack.sat_solve_calls", "count"},
	{"attack.oracle_evals", "count"},
	{"place.place_s", "s"},
	{"route.route_s", "s"},
	{"route.vias", "count"},
	{"route.cut_pins", "count"},
	{"split.split_s", "s"},
	{"bmarks.load_s", "s"},
	{"flow.job_prepare_s", "s"},
	{"flow.cell_busy_s", "s"},
	{"flow.idle_core_s", "s"},
	{"server.submit_s", "s"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_lookups", "count"},
	{"server.refused", "count"},
	{"trace.overhead_s", "s"},
}

// deterministicCounters must repeat exactly for the same code and seed.
var deterministicCounters = []string{
	"lec.aig_nodes", "lec.sweep_merges", "lec.sat_pairs", "lec.problem_clauses",
	"locking.removed_gates", "attack.sat_queries", "attack.sat_solve_calls",
	"attack.oracle_evals", "route.vias", "route.cut_pins", "server.cache_lookups",
}

// spanMetrics maps per-layer time metrics to the span they sum.
var spanMetrics = map[string]string{
	"attack.proximity_s":     "attack.proximity",
	"attack.proximity_raw_s": "attack.proximity_raw",
	"sim.hdoer_s":            "sim.hdoer",
	"sim.equiv_s":            "sim.equiv",
	"lec.check_s":            "lec.check",
	"locking.atpg_lock_s":    "locking.atpg_lock",
	"attack.satattack_s":     "attack.satattack",
	"place.place_s":          "place.place",
	"route.route_s":          "route.route",
	"split.split_s":          "split.split",
	"bmarks.load_s":          "bmarks.load",
	"flow.job_prepare_s":     "flow.job_prepare",
}

// perLayerValues computes the per-layer metrics of a traced invocation.
func perLayerValues(rec *recorder, plain, tr *runOut, st runState) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload does not reach reads 0
	}
	for metric, name := range spanMetrics {
		m[metric] = rec.total(name)
	}
	for _, c := range deterministicCounters {
		m[c] = rec.counts[c]
	}
	if t := m["attack.proximity_s"] + m["attack.proximity_raw_s"]; t > 0 {
		m["attack.proximity_kpins_per_s"] = rec.counts["attack.proximity_pins"] / t / 1e3
	}
	if t := m["sim.hdoer_s"]; t > 0 {
		m["sim.hdoer_mpatterns_per_s"] = rec.counts["sim.hdoer_patterns"] / t / 1e6
	}
	busy := rec.total("flow.cell") + rec.total("flow.job")
	m["flow.cell_busy_s"] = busy
	m["flow.idle_core_s"] = tr.wall*float64(runtime.GOMAXPROCS(0)) - busy
	m["trace.overhead_s"] = tr.wall - plain.wall
	if d, ok := st.(*daemonState); ok {
		m["server.submit_s"] = d.stats.submitS
		m["server.refused"] = float64(d.stats.refused)
		m["server.cache_lookups"] = float64(d.stats.cacheable)
		if d.stats.cacheable > 0 {
			m["server.cache_hit_ratio"] = float64(d.stats.cacheHits) / float64(d.stats.cacheable)
		}
	}
	return m
}
