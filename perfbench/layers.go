package main

// layerMetric is one per-layer metric: its name (layer prefix first),
// unit, and which direction is better. BENCHMARK.json's per_layer list
// must match this table; a test holds the two together.
type layerMetric struct{ name, unit, better string }

// layerMetrics is the per-layer table a traced run prints. Counts from
// the simulator (events, frames, joins, segments, migrations) are
// simulated statistics: they repeat exactly for a seed, so a speed-only
// change leaves them identical. A metric of a layer the workload never
// enters reads 0 (README.md lists which workloads each one applies to).
var layerMetrics = []layerMetric{
	{"scenario.plan_s", "s", "lower"},

	{"shard.build_s", "s", "lower"},
	{"shard.warmup_s", "s", "lower"},
	{"shard.epoch_ms_p50", "ms", "lower"},
	{"shard.epoch_ms_max", "ms", "lower"},
	{"shard.event_imbalance", "ratio", "lower"},
	{"shard.migrations", "count", "lower"},
	{"shard.halo_frames", "count", "lower"},
	{"shard.utilization", "ratio", "higher"},
	{"shard.tiles", "count", "lower"},
	{"shard.sim_rate", "sim-s/s", "higher"},

	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},

	{"radio.tx", "count", "lower"},
	{"radio.delivered", "count", "lower"},
	{"radio.fanout", "ratio", "lower"},
	{"radio.lost", "count", "lower"},
	{"radio.collisions", "count", "lower"},
	{"radio.retries", "count", "lower"},

	{"mac.assoc_attempts", "count", "lower"},
	{"mac.assoc_ok_ratio", "ratio", "higher"},
	{"dhcp.attempts", "count", "lower"},
	{"dhcp.ok_ratio", "ratio", "higher"},
	{"join.successes", "count", "higher"},
	{"join.latency_ms_p50", "ms", "lower"},

	{"core.switches", "count", "lower"},
	{"core.probes", "count", "lower"},
	{"core.soft_handoffs", "count", "higher"},

	{"tcp.segments", "count", "higher"},
	{"tcp.retx_ratio", "ratio", "lower"},
	{"tcp.timeouts", "count", "lower"},
	{"tcp.bytes_acked", "B", "higher"},

	{"gc.cycles", "count", "lower"},
	{"gc.cpu_fraction", "ratio", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"gc.alloc_objects", "count", "lower"},
	{"mem.peak_rss_mb", "MB", "lower"},

	{"checkpoint.capture_s", "s", "lower"},
	{"checkpoint.encode_s", "s", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"checkpoint.write_s", "s", "lower"},
	{"checkpoint.read_s", "s", "lower"},
	{"checkpoint.decode_s", "s", "lower"},
	{"checkpoint.build_s", "s", "lower"},
	{"checkpoint.apply_s", "s", "lower"},

	{"supervisor.open_ms", "ms", "lower"},
	{"supervisor.submit_ms", "ms", "lower"},
	{"expt.runs", "count", "higher"},
	{"expt.run_s_p50", "s", "lower"},
	{"expt.run_s_max", "s", "lower"},
	{"expt.claims_passed", "count", "higher"},
	{"archive.bytes", "B", "lower"},
	{"archive.fetch_ms", "ms", "lower"},
	{"archive.decode_s", "s", "lower"},

	{"cpu.sim", "share", "lower"},
	{"cpu.radio", "share", "lower"},
	{"cpu.mac", "share", "lower"},
	{"cpu.dhcp", "share", "lower"},
	{"cpu.core", "share", "lower"},
	{"cpu.tcpsim", "share", "lower"},
	{"cpu.backhaul", "share", "lower"},
	{"cpu.geo", "share", "lower"},
	{"cpu.wifi", "share", "lower"},
	{"cpu.scenario", "share", "lower"},
	{"cpu.shard", "share", "lower"},
	{"cpu.checkpoint", "share", "lower"},
	{"cpu.archive", "share", "lower"},
	{"cpu.expt", "share", "lower"},
	{"cpu.model", "share", "lower"},
	{"cpu.sweep", "share", "lower"},
	{"cpu.gc", "share", "lower"},
	{"cpu.other", "share", "lower"},

	{"span.setup.self_s", "s", "lower"},
	{"span.window.self_s", "s", "lower"},
	{"span.save.self_s", "s", "lower"},
	{"span.load.self_s", "s", "lower"},
	{"span.check.self_s", "s", "lower"},

	{"trace.overhead_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
