package main

// metricDef declares one reported metric: its name, unit and which
// direction is better. BENCHMARK.json at the repository root declares the
// same set; TestMetricTableMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of an untraced run (--trace 0): what a user of
// the monitoring system sees. Every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"intervals_per_s", "1/s", "higher"},
	{"interval_latency_p50_us", "us", "lower"},
	{"interval_latency_p99_us", "us", "lower"},
	{"fig15_overhead_pct", "%", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1), one group per
// module. A layer a workload does not exercise reports 0 (see the
// package comment's table of which workload loads which layer).
var perLayer = []metricDef{
	{"region.ns_per_interval", "ns", "lower"},
	{"region.p99_us", "us", "lower"},
	{"region.regions_mean", "count", "lower"},
	{"region.formations", "count", "lower"},
	{"region.regions_pruned", "count", "lower"},
	{"region.ucr_frac_mean", "ratio", "lower"},
	{"region.samples_per_distinct_pc", "ratio", "higher"},
	{"gpd.centroid.ns_per_interval", "ns", "lower"},
	{"gpd.cpi.ns_per_interval", "ns", "lower"},
	{"gpd.phase_changes", "count", "lower"},
	{"changepoint.ns_per_interval", "ns", "lower"},
	{"changepoint.p99_us", "us", "lower"},
	{"changepoint.evals", "count", "lower"},
	{"changepoint.evals_per_interval", "ratio", "lower"},
	{"changepoint.changes", "count", "lower"},
	{"altdetect.bbv.ns_per_interval", "ns", "lower"},
	{"altdetect.working-set.ns_per_interval", "ns", "lower"},
	{"pipeline.ns_per_interval", "ns", "lower"},
	{"pipeline.fanout_ns_per_interval", "ns", "lower"},
	{"ingest.worker_gap_ns_per_interval", "ns", "lower"},
	{"ingest.push_blocked_frac", "ratio", "lower"},
	{"ingest.same_stream_run_mean", "intervals", "higher"},
	{"ingest.queue_depth_max", "slots", "lower"},
	{"ingest.drain_ms", "ms", "lower"},
	{"ingest.shard_speedup", "x", "higher"},
	{"vhash.ns_per_interval", "ns", "lower"},
	{"sim.record_s", "s", "lower"},
	{"sim.cycles", "cycles", "lower"},
	{"hpm.overflows", "count", "lower"},
	{"hpm.samples", "count", "lower"},
	{"soak.generate_s", "s", "lower"},
	{"trace.intervals", "count", "higher"},
	{"trace.unattributed_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// layerOf maps a registered detector name to its per-layer metric
// prefix.
var layerOf = map[string]string{
	"gpd":         "gpd.centroid",
	"cpi":         "gpd.cpi",
	"regions":     "region",
	"bbv":         "altdetect.bbv",
	"working-set": "altdetect.working-set",
	"changepoint": "changepoint",
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics; set refuses names the tables do
// not declare, so an emitted name can never drift from its declaration.
type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				m[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}
