package main

// metricDecl declares one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; a test keeps the two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (end-to-end metrics only).
	Bound float64
}

// endToEnd are the metrics a user of the system would see, the same names on
// every workload. failed_share is reported through the attempted and failed
// counts of every run, and simulated warp-instructions per wall second is
// the per-layer sim.mwi_per_s, because neither can be "never 0" on all four
// workloads. The bounds are the widest BENCHMARK.json may hold: on the shared
// 2-CPU host the benchmark was written on, ten runs of one commit spread by
// 5-18% of their median (README.md, "Run-to-run spread").
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, measured by the traced run from
// the benchmark's own files. A workload that does not cross a layer reports
// 0 for the layer's counts and ratios and the tracer's floor for its
// durations (addFloor). README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metricDecl{
	{Name: "sim.device_new_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.newdriver_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.launch_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.first_launch_over_steady", Unit: "ratio", Better: "lower"},
	{Name: "sim.mwi_per_launch_s", Unit: "1e6/s", Better: "higher"},
	{Name: "sim.mwi_per_s", Unit: "1e6/s", Better: "higher"},
	{Name: "sim.execnanos_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "sim.superinstr_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "sim.block_compiles", Unit: "count", Better: "lower"},
	{Name: "sim.allocs_per_mwi", Unit: "count", Better: "lower"},
	{Name: "compiler.build_ms", Unit: "ms", Better: "lower"},
	{Name: "compiler.cold_compile_ms", Unit: "ms", Better: "lower"},
	{Name: "compiler.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "compiler.instrs_out", Unit: "count", Better: "lower"},
	{Name: "kir.reference_ms", Unit: "ms", Better: "lower"},
	{Name: "fuzz.generate_us", Unit: "us", Better: "lower"},
	{Name: "fuzz.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "fuzz.check_self_ms", Unit: "ms", Better: "lower"},
	{Name: "pattern.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "perfmodel.kerneltime_us", Unit: "us", Better: "lower"},
	{Name: "bench.host_self_ms", Unit: "ms", Better: "lower"},
	{Name: "client.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.hop_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "cluster.hedge_wins", Unit: "count", Better: "higher"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.dedup_joined", Unit: "count", Better: "higher"},
	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.do_hit_us", Unit: "us", Better: "lower"},
	{Name: "sched.do_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.retries", Unit: "count", Better: "lower"},
	{Name: "sched.dedup_shared", Unit: "count", Better: "higher"},
	{Name: "submit.parse_us", Unit: "us", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "host.cpus", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "trace.op_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.self_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadWhy is each workload's one-line reason, as BENCHMARK.json has it.
var workloadWhy = []struct{ Name, Why string }{
	{"paper-grid", "what the paper's users run: large regular kernels, so steady-state interpretation in sim does most of the work and compiler, server and cluster almost none"},
	{"fuzz-oracle", "the same sim and compiler layers with ~1k-instruction launches, so device construction, predecode, fusion and compilation dominate and ahead-of-time work shows its cost"},
	{"serve-hot", "result-cache reads only: cluster routing, the worker hop, sched lookup and JSON encoding do all the work and sim none"},
	{"serve-cold", "content keys never repeat, so caches are written and never read: admission, queue wait, the submit gauntlet, compile and device construction sit on the blocking path"},
}
