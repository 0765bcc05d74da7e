package main

// metricDef names one reported metric. For a per-layer metric, moves
// names the end-to-end metric it should move and on which workload, so
// a later change can cite the pair it claims against.
type metricDef struct {
	name   string
	unit   string
	better string
	moves  string
}

// e2eMetrics are the metrics a user of the system sees. Each is reported
// on every workload and is never 0 there. An op is a /count answer on
// count-cold and count-hot, an acknowledged insert or a /count answer on
// ingest-mix, and one 8-metric counting pass on sim-count.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_s", unit: "1/s", better: "higher"},
	{name: "count_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// reportMetrics are end-to-end figures that only some workloads have,
// that a clean loopback ring holds at 0, or that the host's own load
// moves by more than any bound (count_p99_ms), so they carry no bound.
// The report prints the ones a workload has; the traced run's JSON
// carries all of them beside the per-layer metrics.
var reportMetrics = []metricDef{
	{name: "count_p99_ms", unit: "ms", better: "lower", moves: "end-to-end: /count (or pass) latency p99, beside count_p50_ms"},
	{name: "count_qps", unit: "1/s", better: "higher", moves: "end-to-end: /count answers per second"},
	{name: "insert_ops_s", unit: "1/s", better: "higher", moves: "end-to-end: acknowledged inserts per second (ingest-mix)"},
	{name: "insert_p50_ms", unit: "ms", better: "lower", moves: "end-to-end: insert latency (ingest-mix)"},
	{name: "insert_p99_ms", unit: "ms", better: "lower", moves: "end-to-end: insert latency (ingest-mix)"},
	{name: "sim_passes_s", unit: "1/s", better: "higher", moves: "end-to-end: 8-metric passes per second (sim-count)"},
	{name: "error_ratio", unit: "ratio", better: "lower", moves: "end-to-end: failed / attempted; checked to be 0"},
	{name: "degraded_ratio", unit: "ratio", better: "lower", moves: "end-to-end: degraded answers / answers"},
	{name: "est_rel_err", unit: "ratio", better: "lower", moves: "end-to-end: mean |estimate-true|/true over fan-outs and passes; checked against the m envelope"},
}

// layerMetrics are the traced run's metrics, layer by layer.
var layerMetrics = []metricDef{
	{"serve.transport_us", "us", "lower", "count_p50_ms, ops_s on count-hot; flat on count-cold"},
	{"serve.frontend_self_us", "us", "lower", "count_p50_ms, ops_s on count-hot; flat on count-cold"},
	{"serve.cache_hit_ratio", "ratio", "higher", "ops_s on count-hot; error_ratio everywhere"},
	{"serve.coalesced_ratio", "ratio", "higher", "ops_s on count-hot; error_ratio everywhere"},
	{"serve.fanouts_per_req", "count", "lower", "ops_s on count-hot; error_ratio everywhere"},
	{"serve.shed", "count", "lower", "ops_s on count-hot; error_ratio everywhere"},
	{"netdht.fanout_p50_ms", "ms", "lower", "count_p50_ms on count-cold and ingest-mix"},
	{"netdht.fanout_p99_ms", "ms", "lower", "count_p99_ms on count-cold and ingest-mix"},
	{"netdht.probe_attempts_per_pass", "count", "lower", "ops_s, cpu_ms_per_op on count-cold"},
	{"netdht.find_succ_rpcs_per_pass", "count", "lower", "ops_s, cpu_ms_per_op on count-cold"},
	{"netdht.probe_rpcs_per_pass", "count", "lower", "ops_s, cpu_ms_per_op on count-cold"},
	{"netdht.probe_useful_ratio", "ratio", "higher", "ops_s, cpu_ms_per_op on count-cold"},
	{"netdht.find_succ_rtt_us", "us", "lower", "count_p50_ms on count-cold; ops_s on ingest-mix"},
	{"netdht.probe_rtt_us", "us", "lower", "count_p50_ms on count-cold"},
	{"netdht.insert_rtt_us", "us", "lower", "ops_s on ingest-mix"},
	{"netdht.client_bytes_per_op", "B", "lower", "count_p50_ms on count-cold; ops_s on ingest-mix"},
	{"netdht.dials", "count", "lower", "count_p99_ms; error_ratio"},
	{"netdht.redials", "count", "lower", "count_p99_ms; error_ratio"},
	{"netdht.retries", "count", "lower", "count_p99_ms; error_ratio"},
	{"netdht.hops_per_pass", "count", "lower", "count_p99_ms on count-cold"},
	{"netdht.hops_per_insert", "count", "lower", "ops_s on ingest-mix"},
	{"netdht.server_bytes_per_op", "B", "lower", "count_p99_ms on count-cold; ops_s on ingest-mix"},
	{"netdht.server_find_succ_us", "us", "lower", "count_p99_ms on count-cold; ops_s on ingest-mix"},
	{"netdht.server_probe_us", "us", "lower", "count_p99_ms on count-cold"},
	{"netdht.server_insert_us", "us", "lower", "ops_s on ingest-mix"},
	{"netdht.node_load_max_mean", "ratio", "lower", "count_p99_ms on count-cold (uniform-load constraint)"},
	{"netdht.maint_busy_ms_per_s", "ms/s", "lower", "background on every ring workload; flat under data-path changes"},
	{"store.probe_reads_per_pass", "count", "lower", "count_p50_ms on count-cold"},
	{"store.sets_per_insert", "count", "lower", "ops_s on ingest-mix"},
	{"store.tuples", "count", "lower", "peak_rss_mb"},
	{"core.lookups_per_pass", "count", "lower", "ops_s on sim-count; identical under a pure speed change"},
	{"core.nodes_visited_per_pass", "count", "lower", "ops_s on sim-count; identical under a pure speed change"},
	{"core.hops_per_pass", "count", "lower", "ops_s on sim-count; identical under a pure speed change"},
	{"core.model_bytes_per_pass", "B", "lower", "ops_s on sim-count; identical under a pure speed change"},
	{"chord.routed_max_mean", "ratio", "lower", "ops_s on sim-count; identical under a pure speed change"},
	{"store.probed_max_mean", "ratio", "lower", "ops_s on sim-count; identical under a pure speed change"},
	{"runtime.cpu_user_ms_per_op", "ms", "lower", "cpu_ms_per_op, ops_s on count-cold; ops_s on ingest-mix"},
	{"runtime.cpu_sys_ms_per_op", "ms", "lower", "cpu_ms_per_op, ops_s on count-cold; ops_s on ingest-mix"},
	{"runtime.allocs_per_op", "count", "lower", "cpu_ms_per_op, ops_s on count-cold; ops_s on ingest-mix"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "cpu_ms_per_op, ops_s on count-cold; ops_s on ingest-mix"},
	{"runtime.gc_per_kop", "count", "lower", "cpu_ms_per_op, ops_s on count-cold; ops_s on ingest-mix"},
	{"runtime.goroutines_leaked", "count", "lower", "error_ratio"},
	{"trace.overhead_pct", "%", "lower", "ops_s lost to tracing: traced window against the untraced one"},
}
