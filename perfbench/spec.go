package main

// The catalogue below is the benchmark's contract: BENCHMARK.json at the
// repository root lists the same workloads and metrics (spec_test.go
// fails on any drift), and the program refuses to print a result whose
// metric set differs from it.

// metricSpec describes one printed metric. Bound is the share of the
// median of a change's base commit by which an end-to-end metric may
// worsen; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadSpec names one workload and the reason it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"knn-window-100k", "100k random walks (len 128), windowed DTW r=6 from a 2-shard store, 2 HTTP k=1 clients: >=99.8% prune, so the per-N scan and bound kernels dominate and the DP idles"},
	{"knn-sdtw-trace", "500 Trace series, 2 shards, the paper's (ac,aw) band, 2 HTTP k=5 clients, 2/3 anonymous, 1/3 ID'd: ~50% prune, so features, matching and the DP dominate"},
	{"fleet-1000x100", "Hub, 100 len-16 queries over 1000 streams, replayed then paced at the command's --fleet-rate: the only workload on the hub, SPRING and prefilter path; ~half the points skippable"},
}

// End-to-end metrics, measured with tracing off. Every workload prints
// all of them; what an "operation" is depends on the workload (see
// README.md in this directory). The timing bounds are the widest allowed:
// on the shared 2-core VM the benchmark was defined on, ten seeds of one
// workload spread 9-12% (quartile distance over median) and the machine
// drifted by more than 10% over a quarter of an hour.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.1},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
}

// Per-layer metrics, measured in a traced run.
var perLayerSpecs = []metricSpec{
	{"serve.self_ms", "ms", "lower", 0},
	{"serve.transport_ms", "ms", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"shard.search_ms", "ms", "lower", 0},
	{"shard.write_ms", "ms", "lower", 0},
	{"shard.skew", "ratio", "lower", 0},
	{"retrieve.prune_rate", "ratio", "higher", 0},
	{"retrieve.pruned_sketch", "count", "higher", 0},
	{"retrieve.pruned_kim", "count", "higher", 0},
	{"retrieve.pruned_keogh", "count", "higher", 0},
	{"retrieve.evaluated", "count", "lower", 0},
	{"retrieve.abandon_rate", "ratio", "higher", 0},
	{"retrieve.cells", "count", "lower", 0},
	{"retrieve.cells_gain", "ratio", "higher", 0},
	{"retrieve.bound_busy_ms", "ms", "lower", 0},
	{"retrieve.match_busy_ms", "ms", "lower", 0},
	{"retrieve.dp_busy_ms", "ms", "lower", 0},
	{"retrieve.other_ms", "ms", "lower", 0},
	{"retrieve.build_s", "s", "lower", 0},
	{"sketch.lbpaa_ns", "ns", "lower", 0},
	{"lower.kim_ns", "ns", "lower", 0},
	{"lower.keogh_ns", "ns", "lower", 0},
	{"lower.bytes_per_query", "B", "lower", 0},
	{"core.extract_ms", "ms", "lower", 0},
	{"core.match_ms", "ms", "lower", 0},
	{"core.dp_ms", "ms", "lower", 0},
	{"core.extract_per_query", "count", "lower", 0},
	{"dtw.cells_per_us", "1/us", "higher", 0},
	{"dtw.spring_appends_per_point", "count", "lower", 0},
	{"store.save_s", "s", "lower", 0},
	{"store.open_s", "s", "lower", 0},
	{"store.append_ms", "ms", "lower", 0},
	{"store.tombstone_ms", "ms", "lower", 0},
	{"store.space_amp", "ratio", "lower", 0},
	{"store.segments", "count", "lower", 0},
	{"store.tombstones", "count", "lower", 0},
	{"hub.push_us", "us", "lower", 0},
	{"hub.skip_rate", "ratio", "higher", 0},
	{"hub.backpressure_retries", "count", "lower", 0},
	{"hub.backlog_points", "count", "lower", 0},
	{"hub.generator_lag_ms", "ms", "lower", 0},
	{"hub.matches", "count", "higher", 0},
	{"input.anon_share", "ratio", "higher", 0},
	{"input.skippable_share", "ratio", "higher", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.ops_ratio", "ratio", "higher", 0},
	{"trace.p50_ratio", "ratio", "lower", 0},
}
