package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"mkbas/internal/perf"
)

// flagTable is every flag a subcommand can register, by name. A name has
// one type (its default's), one default and one help text in every
// subcommand that takes it.
var flagTable = map[string]struct {
	def   any
	usage string
}{
	// One board: control and mon.
	"platform":       {"minix", "platform: minix, minix-vanilla, sel4, linux, linux-hardened"},
	"duration":       {40 * time.Minute, "virtual run time"},
	"setpoint":       {0.0, "new setpoint to POST mid-run (0 = none)"},
	"setpoint-at":    {10 * time.Minute, "when to POST the new setpoint"},
	"fail-heater-at": {time.Duration(0), "inject a heater fault at this instant (0 = never)"},
	"trace":          {true, "print the board trace"},
	"events":         {false, "dump the unified security-event stream"},
	"metrics":        {false, "print board metrics in Prometheus text exposition"},
	"bacnet":         {false, "also run the BACnet gateway and demo a field-bus read"},
	"bacnet-key":     {"", "enable the secure proxy with this shared key"},
	"embed-events":   {true, "embed the retained security events in the report"},
	"chrome":         {"", `write the IPC spans as Chrome trace-event JSON to this file ("-" = stdout)`},
	"prom":           {false, "print metrics in Prometheus text exposition instead of a report"},
	"api-requests":   {0, "attach the tenant API tier and drive this many deterministic occupant/manager/vendor requests across the run (adds api_* counters and latency histograms to the report)"},
	"action":         {"", "replay an E1 attack instead of the plain scenario (spoof-sensor, command-actuators, kill-controller, enumerate-handles, fork-bomb)"},
	"root":           {false, "attack with the root attacker model"},

	// The attack matrix.
	"platforms": {"paper", `platforms: "paper" (linux, minix3-acm, sel4), "all" (adds linux-hardened, minix3-vanilla), or a comma list`},
	"actions":   {"all", `actions: "all" (board attacks), "api" (tenant-tier attacks: api-token-replay, api-role-escalation, api-vendor-pivot, api-flood), or a comma list of either family`},
	"model":     {"both", `attacker model: "user", "root", or "both"`},
	"quota":     {0, "fork quota for MINIX (0 = no quota; E8 uses 5)"},
	"v":         {false, "print per-run summaries"},

	// Campaigns: lab, building, load.
	"sweep":     {"", "campaign sweep, semicolon-separated axis=values clauses. lab axes: platforms, actions, models, plants, quotas, faults, monitor (default: the full E1 campaign). building axes: rooms, mix, secure, attack, monitor, busfaults, standby, api, settle, window (default: one run)"},
	"faults":    {"", `fault-injection plans (E10 chaos). mon: one builtin plan, e.g. crash-sensor; lab: a comma list of builtin names (see faultinject.Names) or plan JSON files; building: comma-separated room=plan pairs, e.g. "2=crash-sensor"`},
	"json":      {false, "emit the report as JSON instead of text"},
	"q":         {false, "suppress per-case progress lines on stderr"},
	"workers":   {runtime.GOMAXPROCS(0), "boards in flight at once (1 = serial reference)"},
	"requests":  {1_000_000, "total simulated requests across all shards"},
	"shards":    {64, "independent gateway shards (the determinism unit)"},
	"seed":      {uint64(0xE15), "campaign seed: drives principal, route, and value choices"},
	"rooms":     {16, "number of rooms (one controller board each)"},
	"mix":       {"paper", `platform rotation: "paper", "all", one platform, or names joined by "+"`},
	"secure":    {"even", `secure-proxy coverage: "all", "none", "even", "odd", or room indices joined by "+"`},
	"attack":    {true, "run the room-0 lateral-movement attacker"},
	"settle":    {30 * time.Minute, "virtual settle time before the attack window"},
	"window":    {90 * time.Minute, "virtual attack window after settle"},
	"busfaults": {"", `bus-level fault plan name, e.g. "bus-partition" or "partition-failover"`},
	"standby":   {false, "attach a standby head-end that takes over when the primary goes silent"},
	"api":       {false, "attach the building-scale tenant API tier with deterministic per-round occupant traffic (E16)"},
	"room-seed": {int64(0), "base scenario seed (room i runs room-seed+i)"},

	// Policy machinery.
	"monitor":  {false, "attach the online policy monitor: every IPC delivery is checked against the certified static access graph"},
	"demote":   {false, "incident response: demote offending subjects to the untrusted origin (implies -monitor); API attacks also revoke the stolen credential at the attack window's open"},
	"recovery": {false, "enable the optional recovery machinery (seL4 monitor, hardened-Linux supervisor)"},

	// Host-side profiling.
	"perf":                 {false, "collect a host-side per-phase time/alloc profile and print the table"},
	"perf-out":             {"", "write the perf table to this file instead of stderr"},
	"perf-timings":         {true, "include host-dependent columns (total/avg/max/allocs, gauges); false leaves only the deterministic phase skeleton"},
	"perf-json":            {false, "emit the perf profile as JSON instead of a table"},
	"perf-trace":           {"", "write a Chrome trace-event timeline of the host execution (workers as tracks) to this file; implies -perf collection"},
	"perf-trace-normalize": {false, "replace host timestamps in the trace with per-track event ordinals (byte-deterministic at workers=1)"},
	"cpuprofile":           {"", "write a Go CPU profile to this file"},
	"memprofile":           {"", "write a Go heap profile to this file"},

	// Static analysis: policy and aadl.
	"scenario": {"", "built-in scenario to analyze (tempcontrol)"},
	"aadl":     {"", "AADL model to compile and analyze instead of a built-in scenario"},
	"system":   {"", "system implementation in the AADL model (default: the model's only one)"},
	"emit":     {"acm", "output: acm, c, or camkes"},
	"lint":     {false, "append the policy lint findings to the output"},
	"props":    {"", "property file overriding the built-in scenario property set"},
	"audit":    {false, "run the MINIX deployment and report granted-but-unused rights"},
	"run":      {2 * time.Minute, "virtual time to run the deployment for -audit"},
	"strict":   {false, "with -audit: exit nonzero on unused grants outside the -allow allowlist"},
	"allow":    {"", "allowlist for -audit -strict: one accepted unused_grant(...) check per line, # comments"},
	"tenant":   {false, "include the tenant-API-gateway-extended policy: adds the minix-acm-tenant static case and audits the deployment under the extended matrix"},
}

// bind registers the table's flag name on fs, storing into p. The entry's
// default must have p's type.
func bind[T any](fs *flag.FlagSet, p *T, name string) {
	d, ok := flagTable[name]
	if !ok {
		panic(fmt.Sprintf("bas: flag -%s is not in the flag table", name))
	}
	*p = d.def.(T)
	switch v := any(p).(type) {
	case *bool:
		fs.BoolVar(v, name, *v, d.usage)
	case *string:
		fs.StringVar(v, name, *v, d.usage)
	case *int:
		fs.IntVar(v, name, *v, d.usage)
	case *int64:
		fs.Int64Var(v, name, *v, d.usage)
	case *uint64:
		fs.Uint64Var(v, name, *v, d.usage)
	case *float64:
		fs.Float64Var(v, name, *v, d.usage)
	case *time.Duration:
		fs.DurationVar(v, name, *v, d.usage)
	default:
		panic(fmt.Sprintf("bas: flag -%s has unsupported type %T", name, *p))
	}
}

// get registers the table's flag name on fs and returns its value.
func get[T any](fs *flag.FlagSet, name string) *T {
	p := new(T)
	bind(fs, p, name)
	return p
}

// perfFlags registers the host-side profiling flags.
func perfFlags(fs *flag.FlagSet) *perf.CLI {
	c := new(perf.CLI)
	bind(fs, &c.Enabled, "perf")
	bind(fs, &c.Out, "perf-out")
	bind(fs, &c.Timings, "perf-timings")
	bind(fs, &c.JSON, "perf-json")
	bind(fs, &c.TracePath, "perf-trace")
	bind(fs, &c.TraceNorm, "perf-trace-normalize")
	bind(fs, &c.CPUProfile, "cpuprofile")
	bind(fs, &c.MemProfile, "memprofile")
	return c
}
