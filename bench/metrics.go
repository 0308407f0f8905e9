package main

// The benchmark's metric vocabulary. BENCHMARK.json at the repository root
// declares the same names, units, directions and bounds; a test keeps the two
// identical, so every later change is judged by exactly these names.

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef declares one metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is how far the median may worsen, as a share of the baseline
	// median, before -compare reports a disagreement (end-to-end only).
	Bound float64 `json:"bound,omitempty"`
	// Exact marks a deterministic count: it must read identically in every
	// run of one seed, so -compare gates it by equality, not by a bound.
	Exact bool `json:"-"`
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload from the untraced pass. Their bounds sit at the spread measured
// between runs on a shared 2-vCPU host (bench/README.md); step-time
// percentiles spread wider than any allowed bound there, so they are ledger
// rows instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "throughput", Unit: "units/s", Better: higher, Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: lower, Bound: 0.20},
}

// perLayer is the layered cost ledger, named <layer>.<metric> after the
// repository's modules. A -trace run reports all of them for every workload;
// a metric whose layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "machine.traps_per_board_s", Unit: "count/board-s", Better: lower, Exact: true},
	{Name: "machine.ctxsw_per_board_s", Unit: "count/board-s", Better: lower, Exact: true},
	{Name: "machine.dispatches_per_board_s", Unit: "count/board-s", Better: lower, Exact: true},
	{Name: "machine.allocs_per_board_s", Unit: "allocs/board-s", Better: lower},
	{Name: "machine.run_us_per_board_s", Unit: "us/board-s", Better: lower},
	{Name: "machine.dispatch_ns", Unit: "ns", Better: lower},
	{Name: "machine.dispatch_share_pct", Unit: "%", Better: lower},
	{Name: "machine.ctrl_kernel_pct", Unit: "%", Better: lower, Exact: true},

	{Name: "minix.acm.traps_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "minix.acm.ctxsw_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "minix.acm.ipc_msgs_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "minix.vanilla.traps_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "minix.vanilla.ctxsw_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "minix.vanilla.ipc_msgs_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "sel4.traps_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "sel4.ctxsw_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "sel4.ipc_msgs_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "linuxsim.vanilla.traps_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "linuxsim.vanilla.ctxsw_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "linuxsim.vanilla.ipc_msgs_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "linuxsim.hardened.traps_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "linuxsim.hardened.ctxsw_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "linuxsim.hardened.ipc_msgs_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},

	{Name: "bas.deploy_ms", Unit: "ms", Better: lower},
	{Name: "bas.dev_io_per_cycle", Unit: "count/cycle", Better: lower, Exact: true},
	{Name: "bas.web_writes_per_round", Unit: "count/round", Better: lower, Exact: true},

	{Name: "vnet.frames_per_round", Unit: "count/round", Better: lower, Exact: true},
	{Name: "vnet.bytes_per_round", Unit: "bytes/round", Better: lower, Exact: true},
	{Name: "vnet.flush_us_per_round", Unit: "us/round", Better: lower},

	{Name: "bacnet.frames_accepted_per_round", Unit: "count/round", Better: lower, Exact: true},
	{Name: "bacnet.frames_rejected", Unit: "count", Better: lower, Exact: true},
	{Name: "bacnet.decode_ns_per_frame", Unit: "ns/frame", Better: lower},

	{Name: "building.polls_per_round", Unit: "count/round", Better: lower, Exact: true},
	{Name: "building.poll_answer_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "building.headend_us_per_round", Unit: "us/round", Better: lower},
	{Name: "building.step_window_us_per_round", Unit: "us/round", Better: lower},
	{Name: "building.board_step_us", Unit: "us", Better: lower},
	{Name: "building.coord_us_per_round", Unit: "us/round", Better: lower},
	{Name: "building.worker_util_pct", Unit: "%", Better: higher},
	{Name: "building.round_ms_p50", Unit: "ms", Better: lower},
	{Name: "building.round_ms_p90", Unit: "ms", Better: lower},
	{Name: "building.round_ms_p99", Unit: "ms", Better: lower},
	{Name: "building.round_ms_max", Unit: "ms", Better: lower},

	{Name: "monitor.observed_per_board_s", Unit: "count/board-s", Better: lower, Exact: true},
	{Name: "monitor.drifts", Unit: "count", Better: lower, Exact: true},
	{Name: "monitor.observe_ns", Unit: "ns", Better: lower},

	{Name: "tenantapi.campaign_ms_p50", Unit: "ms", Better: lower},
	{Name: "tenantapi.campaign_ms_p90", Unit: "ms", Better: lower},
	{Name: "tenantapi.handle_ns", Unit: "ns", Better: lower},
	{Name: "tenantapi.allocs_per_req", Unit: "allocs/request", Better: lower},
	{Name: "tenantapi.served_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "tenantapi.denied_ratio.unauthorized", Unit: "ratio", Better: lower, Exact: true},
	{Name: "tenantapi.denied_ratio.forbidden", Unit: "ratio", Better: lower, Exact: true},
	{Name: "tenantapi.denied_ratio.rate-limited", Unit: "ratio", Better: lower, Exact: true},
	{Name: "tenantapi.denied_ratio.overload", Unit: "ratio", Better: lower, Exact: true},
	{Name: "tenantapi.vlat_ms_p99", Unit: "virtual-ms", Better: lower, Exact: true},

	{Name: "lab.case_ms_p50", Unit: "ms", Better: lower},
	{Name: "lab.case_ms_p90", Unit: "ms", Better: lower},
	{Name: "lab.case_ms_avg", Unit: "ms", Better: lower},
	{Name: "lab.case_ms_max", Unit: "ms", Better: lower},
	{Name: "lab.util_pct", Unit: "%", Better: higher},
	{Name: "lab.allocs_per_case", Unit: "allocs/case", Better: lower},
	{Name: "obs.merge_ms", Unit: "ms", Better: lower},
	{Name: "attack.denials_per_case", Unit: "count/case", Better: lower, Exact: true},
	{Name: "attack.events_per_case", Unit: "count/case", Better: lower, Exact: true},

	{Name: "perf.trace_overhead_pct", Unit: "%", Better: lower},
}

// lookupMetric finds a declared metric by name.
func lookupMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
