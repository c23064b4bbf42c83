package main

// This file is the Go side of BENCHMARK.json: the workloads and the metric
// names the harness prints. smoke_test.go fails when the two drift apart.

// workloads lists the six workloads in the order -all runs them. Why each
// exists is in BENCHMARK.json and README.md.
var workloads = []struct {
	name  string
	build func(*bench) instance
}{
	{"numa48-serial", newNUMA48},
	{"npbis8-node", newNPBIS8},
	{"rv64-fullsys", newRV64},
	{"ckpt-cadence", newCkptCadence},
	{"fleet-cold", newFleetCold},
	{"fleet-cached", newFleetCached},
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s"},
	{"points_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cpuLayers are the buckets of the CPU-profile attribution, by package of
// the flat (innermost) frame; see classify in pprof.go.
var cpuLayers = []string{
	"sim", "noc", "cache", "mem", "bridge", "pcie", "axi_shell", "riscv", "kernel", "workload",
	"core", "ckpt", "campaign", "fleetsrv", "runtime_sched", "runtime_gc", "encoding", "syscall_net", "other",
}

// perLayer is what a traced run reports, for every workload. A metric a
// workload cannot produce (riscv.instret on an IS run, the fleetsrv.* span
// figures on a simulator run) reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Probes: a fixed number of calls into one layer's public API.
		{"sim.event_ns", "ns"},
		{"sim.process_switch_ns", "ns"},
		{"sim.serialnet_send_ns", "ns"},
		{"sim.group_send_ns", "ns"},
		{"sim.window_ns.k2", "ns"},
		{"sim.window_ns.k4", "ns"},
		{"sim.window_ns.k8", "ns"},
		{"noc.hop_ns", "ns"},
		{"cache.l1_hit_ns", "ns"},
		{"cache.llc_hit_ns", "ns"},
		{"mem.dram_miss_ns", "ns"},
		{"bridge.remote_load_ns", "ns"},
		{"riscv.mips", "Minstr/s"},
		{"kernel.ctx_load_ns", "ns"},
		{"kernel.barrier_ns", "ns"},
		{"core.build_ms", "ms"},
		{"core.metrics_json_ms", "ms"},
		{"ckpt.capture_ms", "ms"},
		{"ckpt.write_ms", "ms"},
		{"ckpt.read_ms", "ms"},
		{"ckpt.apply_ms", "ms"},
		{"ckpt.snapshot_bytes", "bytes"},
		{"campaign.key_us", "us"},
		{"campaign.expand_ns_per_point", "ns"},
		{"campaign.queue_op_ns", "ns"},
		{"campaign.cache_put_us", "us"},
		{"campaign.cache_get_us", "us"},
		{"campaign.aggregate_ms", "ms"},
		// Measured by the one workload that has the mechanism in its path.
		{"ckpt.overhead_share", "share"},
		{"fleetsrv.journal_load_ms", "ms"},
		// From the spans of the traced stretch.
		{"fleetsrv.lease_p50_us", "us"},
		{"fleetsrv.lease_p95_us", "us"},
		{"fleetsrv.result_p50_us", "us"},
		{"fleetsrv.result_p95_us", "us"},
		{"fleetsrv.submit_p50_ms", "ms"},
		{"fleetsrv.report_p50_ms", "ms"},
		{"fleetsrv.requests", "count"},
		{"fleetsrv.http_busy_share", "share"},
		{"campaign.execute_busy_share", "share"},
		{"core.build_share", "share"},
		{"sim.run_share", "share"},
		// Exact counts of one repetition (one campaign for the fleet).
		{"sim.cycles", "count"},
		{"sim.events", "count"},
		{"sim.windows", "count"},
		{"sim.chunks", "count"},
		{"noc.flits", "count"},
		{"cache.l1_hits", "count"},
		{"cache.l1_misses", "count"},
		{"cache.llc_misses", "count"},
		{"mem.dram_reads", "count"},
		{"bridge.tx_packets", "count"},
		{"pcie.tx_transfers", "count"},
		{"riscv.instret", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"trace_overhead", "share"},
	}
	for _, layer := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + layer, "share"})
	}
	return defs
}()
