package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names (bench_test.go checks both directions).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all
// eight under the same names, with "op" defined per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_tail_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "kB"},
	{"live_heap_mb", "MB"},
}

// perLayer is what the probes measure, grouped by the workload that
// exercises the layer.
var perLayer = []metricDef{
	// study
	{"workload.generate_us_per_job", "us"},
	{"sched.busy_us_per_job", "us"},
	{"sched.busy_share", "ratio"},
	{"sched.busy_us_per_job.none", "us"},
	{"sched.busy_us_per_job.easy", "us"},
	{"sched.busy_us_per_job.conservative", "us"},
	{"sched.busy_us_per_job.depth4", "us"},
	{"sched.busy_us_per_job.slack1", "us"},
	{"sched.busy_us_per_job.selective2", "us"},
	{"sched.busy_us_per_job.preemptive10", "us"},
	{"sched.launch_calls_per_job", "count"},
	{"sched.launch_useful_ratio", "ratio"},
	{"sim.self_us_per_job", "us"},
	{"audit.us_per_job", "us"},
	{"metrics.us_per_job", "us"},
	// churn
	{"serve.http_submit_us", "us"},
	{"serve.http_cancel_us", "us"},
	{"serve.direct_submit_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.dry_runs_per_kop", "count"},
	{"sched.forecast_full_us", "us"},
	{"wal.append_us_per_rec", "us"},
	{"wal.encode_us_per_rec", "us"},
	{"wal.bytes_per_rec", "B"},
	{"wal.checkpoints_per_kop", "count"},
	{"serve.checkpoint_stall_us", "us"},
	{"sim.session_write_us", "us"},
	// reads
	{"serve.read_status_us", "us"},
	{"serve.read_healthz_us", "us"},
	{"serve.read_queue_cold_us", "us"},
	{"serve.read_queue_warm_us", "us"},
	{"serve.read_metrics_cold_us", "us"},
	{"serve.read_metrics_warm_us", "us"},
	{"serve.cold_share", "ratio"},
	{"serve.lookup_direct_us", "us"},
	{"serve.queue_direct_us", "us"},
	{"serve.metrics_render_us", "us"},
	// follow
	{"replica.sync_us_per_rec", "us"},
	{"wal.tail_us_per_rec", "us"},
	{"serve.apply_us_per_rec", "us"},
	{"replica.self_us_per_rec", "us"},
	{"sim.session_us_per_rec", "us"},
	{"serve.publish_us_per_batch", "us"},
	{"sched.busy_us_per_rec", "us"},
	{"audit.us_per_rec", "us"},
	{"serve.recover_s", "s"},
	{"wal.load_s", "s"},
	// every workload
	{"trace.overhead_ratio", "ratio"},
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
