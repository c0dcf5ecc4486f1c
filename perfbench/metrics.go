package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract: BENCHMARK.json at the repository root lists
// the same names and units (checked by TestBenchmarkJSONMatchesMetrics).
type metricDef struct{ name, unit string }

// endToEnd metrics come only from untraced runs and are reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"entities_per_s", "1/s"},
	{"request_p50_ms", "ms"},
	{"request_p90_ms", "ms"},
	{"cpu_ms_per_entity", "ms"},
	{"alloc_kb_per_entity", "KiB"},
	{"heap_after_mb", "MiB"},
}

// lensNames are the lenses the fixture images' configuration files hit.
var lensNames = []string{"fstab", "mysql", "nginx", "sshd", "sysctl"}

// perLayer metrics come only from traced runs and are reported on every
// workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cvl.resolve_ms", "ms"},
		{"entity.reads_per_entity", "count"},
		{"entity.bytes_read_per_entity", "bytes"},
		{"entity.walks_per_entity", "count"},
		{"entity.io_us_per_entity", "us"},
		{"crawler.crawl_us_per_entity", "us"},
		{"crawler.parse_cache_hit_ratio", "ratio"},
		{"crawler.parse_cache_lookups_per_entity", "count"},
		{"crawler.parse_cache_evictions", "count"},
		{"lens.parses_per_entity", "count"},
	}
	for _, l := range lensNames {
		defs = append(defs, metricDef{"lens.parse_us." + l, "us"})
	}
	return append(defs,
		metricDef{"engine.validate_us_per_entity", "us"},
		metricDef{"engine.eval_self_us_per_entity", "us"},
		metricDef{"engine.pool_ratio", "ratio"},
		metricDef{"fleet.scan_p50_ms", "ms"},
		metricDef{"fleet.scan_p90_ms", "ms"},
		metricDef{"fleet.scan_retries", "count"},
		metricDef{"fleet.scan_timeouts", "count"},
		metricDef{"digest.us_per_entity", "us"},
		metricDef{"journal.append_us_p50", "us"},
		metricDef{"journal.append_us_p90", "us"},
		metricDef{"journal.append_errors", "count"},
		metricDef{"journal.bytes_per_record", "bytes"},
		metricDef{"journal.replay_us_per_record", "us"},
		metricDef{"journal.lookup_rebuild_us", "us"},
		metricDef{"frames.encode_us_per_entity", "us"},
		metricDef{"frames.decode_us_per_entity", "us"},
		metricDef{"frames.bytes_per_entity", "bytes"},
		metricDef{"dist.shard_ms_p50", "ms"},
		metricDef{"dist.wire_bytes_per_entity", "bytes"},
		metricDef{"dist.lease_reassignments", "count"},
		metricDef{"dist.duplicates_dropped", "count"},
		metricDef{"dist.rpc_retries", "count"},
		metricDef{"server.handler_p50_ms", "ms"},
		metricDef{"server.handler_p90_ms", "ms"},
		metricDef{"server.shed", "count"},
		metricDef{"go.gc_cycles_per_1k_entities", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()
