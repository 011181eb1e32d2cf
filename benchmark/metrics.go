package main

import "slices"

// metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics carry none. TestBenchmarkJSON keeps this table and BENCHMARK.json
// identical.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user, the cloud operator and the data owner see, as far
// as this host can hold it to a bound. Every workload emits every one of
// them, and none is ever zero — which is why insert latency and wire bytes
// (absent on in-process workloads) and the failure share (zero when all is
// well) are reported elsewhere. qps, query_p50_us and query_p99_us are
// per-layer metrics for now: by the clock they spread 6–35 % over ten seeds
// on the reference host, beyond the 0.08 / 0.08 / 0.15 ISSUE.md set for
// them, and a metric that cannot hold its bound is demoted, not given a
// wider one (README.md, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.20},
	{"recall_at_10", "fraction", "higher", 0.01},
	{"mem_mb", "MiB", "lower", 0.05},
}

// loadMetrics are what the callers saw in the untraced closed loop. Both
// runs measure and print them; only the --trace 1 run may emit them.
var loadMetrics = []metricDef{
	{name: "qps", unit: "1/s", better: "higher"},
	{name: "query_p50_us", unit: "us", better: "lower"},
	{name: "query_p99_us", unit: "us", better: "lower"},
}

// perLayer is what the --trace 1 run reports: the load metrics, then the
// single-caller traced pass, which times calls into each layer's public
// functions from the benchmark's own code. A metric whose path a workload
// does not have reads 0 there.
var perLayer = slices.Concat(loadMetrics, []metricDef{
	{name: "vec.sq_dist_ns", unit: "ns", better: "lower"},
	{name: "vec.sq_dist_block_ns", unit: "ns", better: "lower"},
	{name: "vec.pq_scan_block_ns", unit: "ns", better: "lower"},
	{name: "vec.bytes_per_call", unit: "bytes", better: "lower"},
	{name: "dce.dist_comp_ns", unit: "ns", better: "lower"},
	{name: "dce.bytes_per_comp", unit: "bytes", better: "lower"},
	{name: "index.search_us", unit: "us", better: "lower"},
	{name: "index.candidates", unit: "count", better: "higher"},
	{name: "index.build_s", unit: "s", better: "lower"},
	{name: "pq.train_s", unit: "s", better: "lower"},
	{name: "pq.bytes_per_point", unit: "bytes", better: "lower"},
	{name: "user.token_us", unit: "us", better: "lower"},
	{name: "user.token_bytes", unit: "bytes", better: "lower"},
	{name: "owner.encrypt_s", unit: "s", better: "lower"},
	{name: "owner.encrypt_vector_us", unit: "us", better: "lower"},
	{name: "core.search_us", unit: "us", better: "lower"},
	{name: "core.filter_us", unit: "us", better: "lower"},
	{name: "core.refine_us", unit: "us", better: "lower"},
	{name: "core.comparisons", unit: "count", better: "lower"},
	{name: "core.candidates", unit: "count", better: "higher"},
	{name: "core.refine_delta_us", unit: "us", better: "lower"},
	{name: "core.exec_overhead_us", unit: "us", better: "lower"},
	{name: "core.allocs_per_op", unit: "count", better: "lower"},
	{name: "core.search_full_delta_us", unit: "us", better: "lower"},
	{name: "core.insert_us", unit: "us", better: "lower"},
	{name: "core.delete_us", unit: "us", better: "lower"},
	{name: "core.compact_s", unit: "s", better: "lower"},
	{name: "core.compact_pause_us", unit: "us", better: "lower"},
	{name: "core.folds", unit: "count", better: "higher"},
	{name: "wal.append_commit_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_write", unit: "bytes", better: "lower"},
	{name: "wal.checkpoint_s", unit: "s", better: "lower"},
	{name: "wal.checkpoint_bytes", unit: "bytes", better: "lower"},
	{name: "wal.open_s", unit: "s", better: "lower"},
	{name: "transport.ping_us", unit: "us", better: "lower"},
	{name: "transport.search_rtt_us", unit: "us", better: "lower"},
	{name: "transport.req_bytes", unit: "bytes", better: "lower"},
	{name: "transport.resp_bytes", unit: "bytes", better: "lower"},
	{name: "transport.shard_resp_bytes", unit: "bytes", better: "lower"},
	{name: "transport.insert_rtt_us", unit: "us", better: "lower"},
	{name: "transport.wire_bytes_per_query", unit: "bytes", better: "lower"},
	{name: "shard.local_overhead_us", unit: "us", better: "lower"},
	{name: "shard.remote_search_us", unit: "us", better: "lower"},
	{name: "shard.split_s", unit: "s", better: "lower"},
	{name: "insert_p50_us", unit: "us", better: "lower"},
	{name: "ledger.e2e_p50_us", unit: "us", better: "lower"},
	{name: "ledger.layer_sum_us", unit: "us", better: "lower"},
	{name: "ledger.residual_frac", unit: "fraction", better: "lower"},
	{name: "ledger.trace_overhead_frac", unit: "fraction", better: "lower"},
})

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the metrics object of the result
// line: exactly the metrics of defs, each with its unit.
func collect(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
