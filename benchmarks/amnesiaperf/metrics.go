package main

// perLayerMetrics are the numbers of single layers a traced run
// reports, each on the shape of data of the workload it ran with. They
// carry no bound: they explain a movement of an end-to-end metric, they
// do not gate a change. ../README.md says which end-to-end metric each
// is expected to move.
var perLayerMetrics = []metricDef{
	// Read ladder: one range select at every altitude, ns per stored row.
	{"mem.sum_ns_per_row", "ns/row", "lower"}, // plain []int64 sum: the roofline
	{"column.scan_ns_per_row", "ns/row", "lower"},
	{"column.count_ns_per_row", "ns/row", "lower"},
	{"column.gather_ns_per_row", "ns/row", "lower"}, // per gathered row
	{"expr.filter_ns_per_row", "ns/row", "lower"},
	{"engine.select_serial_ns_per_row", "ns/row", "lower"},
	{"engine.select_par_ns_per_row", "ns/row", "lower"},
	{"engine.par_speedup", "ratio", "higher"},
	{"engine.aggregate_ns_per_row", "ns/row", "lower"},
	{"engine.touch_ns_per_hit", "ns/hit", "lower"},
	{"engine.stream_ttfc_us", "us", "lower"},
	{"engine.stream_drain_ns_per_row", "ns/row", "lower"},
	{"engine.stream_allocs_per_query", "allocs/op", "lower"},
	{"sql.run_select_ns_per_row", "ns/row", "lower"},
	{"facade.query_ns_per_row", "ns/row", "lower"},
	{"server.query_ns_per_row", "ns/row", "lower"},
	{"server.json_bytes_per_row", "bytes/row", "lower"}, // per result row
	{"http.query_ns_per_row", "ns/row", "lower"},
	{"http.ttfb_us", "us", "lower"},

	// Fixed-cost ladder: one narrow top-k statement, µs per query.
	{"sql.parse_us", "us", "lower"},
	{"sql.plan_cache_hit_us", "us", "lower"},
	{"sql.result_cache_hit_us", "us", "lower"},
	{"sql.orderby_topk_us", "us", "lower"},
	{"sql.point_us", "us", "lower"},
	{"facade.point_us", "us", "lower"},
	{"server.point_us", "us", "lower"},
	{"http.point_us", "us", "lower"},
	{"sched.attach_us", "us", "lower"},
	{"governor.acquire_ns", "ns", "lower"},
	{"sql.plan_cache_hit_ratio", "ratio", "higher"},
	{"sql.result_cache_hit_ratio", "ratio", "higher"},

	// Write ladder: one 4096-row batch into a table at budget, ns per
	// inserted row.
	{"table.append_ns_per_row", "ns/row", "lower"},
	{"amnesia.forget_ns_per_row.fifo", "ns/row", "lower"},
	{"amnesia.forget_ns_per_row.uniform", "ns/row", "lower"},
	{"amnesia.forget_ns_per_row.rot", "ns/row", "lower"},
	{"amnesia.forget_ns_per_row.decay", "ns/row", "lower"},
	{"amnesia.forget_ns_per_row.frequent", "ns/row", "lower"},
	{"table.forget_diff_ns_per_row", "ns/row", "lower"},
	{"wal.encode_ns_per_row", "ns/row", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"durability.commit_wait_us.off", "us", "lower"},
	{"durability.commit_wait_us.group", "us", "lower"},
	{"durability.commit_wait_us.always", "us", "lower"},
	{"facade.insert_ns_per_row", "ns/row", "lower"},
	{"server.insert_ns_per_row", "ns/row", "lower"},
	{"table.vacuum_ns_per_row", "ns/row", "lower"}, // per stored row
	{"partition.insert_ns_per_row", "ns/row", "lower"},
	{"partition.select_ns_per_row", "ns/row", "lower"},
	{"partition.adapt_ms", "ms", "lower"},

	// Background and restart.
	{"snapshot.write_ms", "ms", "lower"},
	{"snapshot.bytes_per_active_row", "bytes/row", "lower"},
	{"durability.disk_bytes_per_active_row", "bytes/row", "lower"},
	{"snapshot.read_ms", "ms", "lower"},
	{"wal.replay_decode_ns_per_row", "ns/row", "lower"},
	{"durability.recover_ms", "ms", "lower"},
	{"durability.recover_apply_ns_per_row", "ns/row", "lower"},

	// The workload's own traffic, traced half of the run: latency per
	// statement class (0 where the workload has none of the class).
	{"http.select_p50_ms", "ms", "lower"},
	{"http.select_p95_ms", "ms", "lower"},
	{"http.select_ttfb_p50_ms", "ms", "lower"},
	{"http.agg_p50_ms", "ms", "lower"},
	{"http.agg_p95_ms", "ms", "lower"},
	{"http.agg_ttfb_p50_ms", "ms", "lower"},
	{"http.point_p50_ms", "ms", "lower"},
	{"http.point_p95_ms", "ms", "lower"},
	{"http.point_ttfb_p50_ms", "ms", "lower"},
	{"http.insert_p50_ms", "ms", "lower"},
	{"http.insert_p95_ms", "ms", "lower"},
	{"http.insert_ttfb_p50_ms", "ms", "lower"},

	// Cross-cutting counters of the traced half.
	{"facade.reader_stall_p95_ms", "ms", "lower"},
	{"sched.pool_running_mean", "count", "higher"},
	{"governor.peak_bytes", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "allocs/op", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes/op", "lower"},
	{"loadgen.late_p95_ms", "ms", "lower"},
	{"host.steal_ratio", "ratio", "lower"},
	{"host.probe_slowdown", "ratio", "lower"}, // the speed probe over the traced half; per-layer numbers are not divided by it
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metricUnits maps every declared metric to its unit.
var metricUnits = func() map[string]string {
	units := make(map[string]string)
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range list {
			units[d.Name] = d.Unit
		}
	}
	return units
}()

// set records a declared metric; its unit comes from the declaration,
// so a reported name that BENCHMARK.json does not know is a bug caught
// at once.
func set(m map[string]metric, name string, value float64, samples int) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("amnesiaperf: undeclared metric " + name)
	}
	m[name] = metric{value, unit, samples}
}
