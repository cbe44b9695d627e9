package main

import (
	"quantpar/internal/experiments"
)

// layerMetric is one per-layer metric as BENCHMARK.json lists it, with the
// end-to-end metric and workload a change to its layer should move. A
// traced run of any workload reports every per-layer metric; one that the
// workload cannot measure reads 0 (README.md says which apply where).
type layerMetric struct {
	name, unit, better string
	moves              string
}

// fixedLayerMetrics are the per-layer metrics that do not depend on the
// experiment list or the programs mix.
var fixedLayerMetrics = []layerMetric{
	{"machine.builds", "count", "lower", "wall_s on paper-cold"},
	{"parsweep.parallelism", "cpu_s/s", "higher", "wall_s on paper-cold"},
	{"runstore.encode_s", "s", "lower", "wall_s on paper-cold (expected under 1%)"},
	{"runstore.verify_s", "s", "lower", "wall_s on paper-cold (expected under 1%)"},
	{"report.render_s", "s", "lower", "wall_s on paper-cold (expected under 1%)"},
	{"phase.hits", "count", "higher", "wall_s on paper-cold, setup_s on programs-warm; 0 on programs-faulted"},
	{"phase.misses", "count", "lower", "wall_s on paper-cold, setup_s on programs-warm; 0 on programs-faulted"},
	{"phase.hit_ratio", "ratio", "higher", "wall_s on paper-cold, setup_s on programs-warm"},
	{"phase.self_s", "s", "lower", "wall_s on programs-warm"},
	{"phase.replay_us", "us", "lower", "wall_s on programs-warm"},
	{"netsim.events", "count", "lower", "wall_s on programs-faulted and paper-cold; no change to wall_s on programs-warm"},
	{"netsim.busy_s", "s", "lower", "wall_s on programs-faulted and paper-cold; no change to wall_s on programs-warm"},
	{"netsim.events_per_s", "1/s", "higher", "wall_s on programs-faulted and paper-cold; no change to wall_s on programs-warm"},
	{"faults.retries", "count", "lower", "wall_s on programs-faulted; 0 on programs-warm"},
	{"faults.dropped", "count", "lower", "wall_s on programs-faulted; 0 on programs-warm"},
	{"faults.corrupted", "count", "lower", "wall_s on programs-faulted; 0 on programs-warm"},
	{"faults.acks", "count", "lower", "wall_s on programs-faulted; 0 on programs-warm"},
	{"bsplib.self_s", "s", "lower", "wall_s on programs-warm"},
	{"bsplib.supersteps", "count", "lower", "none: a count for attribution"},
	{"bsplib.comm_steps", "count", "lower", "none: a count for attribution"},
	{"bsplib.superstep_us.p64", "us", "lower", "wall_s on programs-warm"},
	{"bsplib.superstep_us.p1024", "us", "lower", "wall_s on programs-warm (MasPar ops)"},
	{"go.alloc_mb", "MB", "lower", "max_rss_mb on all three workloads"},
	{"go.gc_cycles", "count", "lower", "max_rss_mb on all three workloads"},
	{"trace.overhead_s", "s", "lower", "none: traced minus plain pass wall time"},
}

// layerMetrics returns every per-layer metric in BENCHMARK.json order.
func layerMetrics() []layerMetric {
	var ms []layerMetric
	for _, id := range experiments.IDs() {
		ms = append(ms, layerMetric{"experiments." + id + ".s", "s", "lower", "wall_s on paper-cold"})
	}
	ms = append(ms, fixedLayerMetrics...)
	for _, f := range families() {
		ms = append(ms, layerMetric{familyMetric(f), "ms", "lower", "wall_s on programs-warm and programs-faulted"})
	}
	return ms
}

// newLayers returns a per-layer map holding every metric a traced pass
// reports, all zero. trace.overhead_s is left out: the run computes it
// from the pass wall times.
func newLayers() map[string]float64 {
	m := map[string]float64{}
	for _, lm := range layerMetrics() {
		if lm.name != "trace.overhead_s" {
			m[lm.name] = 0
		}
	}
	return m
}

// unitOf returns the unit of a per-layer metric.
func unitOf(name string) string {
	for _, lm := range layerMetrics() {
		if lm.name == name {
			return lm.unit
		}
	}
	return ""
}
