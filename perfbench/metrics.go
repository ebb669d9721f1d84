package main

// metrics.go — every metric the benchmark reports, with its unit. The
// end-to-end ones come from --trace 0 runs, the per-layer ones from
// --trace 1 runs; BENCHMARK.json lists the same names and units, which the
// smoke test checks.

type metricDef struct {
	name, unit string
	endToEnd   bool
}

var allMetrics = []metricDef{
	{"setup_s", "s", true},
	{"job_p50_ms", "ms", true},
	{"job_tail_ms", "ms", true},
	{"throughput_per_s", "1/s", true},
	{"server_user_cpu_s_per_job", "s", true},
	{"server_rss_mb", "MB", true},

	{"service.l0_job_ms", "ms", false},
	{"service.http_self_ms", "ms", false},
	{"service.http_submit_ms", "ms", false},
	{"service.http_results_ms", "ms", false},
	{"service.polls_per_job", "count", false},
	{"service.admission_self_ms", "ms", false},
	{"service.checkpoint_self_ms", "ms", false},
	{"service.checkpoint_saves", "count", false},
	{"service.checkpoint_save_ms", "ms", false},
	{"service.csv_self_ms", "ms", false},
	{"service.csv_bytes", "B", false},
	{"service.cachelog_flush_ms", "ms", false},
	{"service.cachelog_replay_ms", "ms", false},
	{"service.cachelog_bytes", "B", false},
	{"service.allocs_per_point", "count", false},
	{"sweep.engine_job_ms", "ms", false},
	{"sweep.engine_job_w1_ms", "ms", false},
	{"sweep.parallel_speedup", "ratio", false},
	{"sweep.core_self_ms", "ms", false},
	{"sweep.allocs_per_point", "count", false},
	{"cache.hit_ratio", "ratio", false},
	{"cache.lookups", "count", false},
	{"cache.evictions", "count", false},
	{"cache.lookup_ns", "ns", false},
	{"protocols.lp_us_per_point", "us", false},
	{"protocols.closed_us_per_point", "us", false},
	{"protocols.region_direction_us", "us", false},
	{"protocols.assemble_us", "us", false},
	{"protocols.allocs_per_point", "count", false},
	{"sim.tdbc_block_ms.n1000", "ms", false},
	{"sim.tdbc_block_ms.n4000", "ms", false},
	{"sim.mabc_block_ms.n1000", "ms", false},
	{"sim.mabc_block_ms.n4000", "ms", false},
	{"sim.allocs_per_block", "count", false},
	{"cpu_share.simplex", "share", false},
	{"cpu_share.gf2", "share", false},
	{"cpu_share.prob", "share", false},
	{"cpu_share.fmt_strconv", "share", false},
	{"cpu_share.syscall", "share", false},
	{"cpu_share.gc", "share", false},
	{"trace_overhead", "ratio", false},
}

func unitOf(name string) string {
	for _, m := range allMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared metric " + name) // every set() names a metric above
}
