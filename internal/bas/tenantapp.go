package bas

import (
	"fmt"
	"strconv"

	"mkbas/internal/decfmt"
	"mkbas/internal/tenantapi"
)

// NameTenantGateway is the tenant API gateway's subject name, shared between
// the certified board policies (the scenario model's tenantApiGw), the
// monitor graphs, and the tenant tier's own access graph.
const NameTenantGateway = tenantapi.SubjectGateway

// TestbedBackend adapts deployed testbeds, room i on the i-th, to the tenant
// gateway's Backend: room reads come straight from each room's plant (the
// head-end's cached view), and setpoint writes ride that room's real
// web-interface HTTP+IPC path, so every tenant write a compromised
// credential lands is mediated — and adjudicated — by the platform under
// test, exactly like an operator's.
//
// Harness-thread only: WriteSetpoint steps the room's virtual machine
// through Testbed.HTTPPostSetpoint and must never be called from a clock
// callback.
type TestbedBackend struct {
	tbs           []*Testbed
	writes        int64
	writeFailures int64
}

// Rooms is the number of testbeds: each is one board heating one room.
func (b *TestbedBackend) Rooms() int { return len(b.tbs) }

// Writes reports setpoint writes the boards accepted (HTTP 200).
func (b *TestbedBackend) Writes() int64 { return b.writes }

// ReadRoom appends the room's live plant state.
func (b *TestbedBackend) ReadRoom(room int, resp *tenantapi.Response) {
	r := b.tbs[room].Room
	resp.Body = append(resp.Body, `,"temp_c":`...)
	resp.Body = decfmt.AppendFixed(resp.Body, r.Temperature(), 2)
	resp.Body = append(resp.Body, `,"heater_on":`...)
	resp.Body = strconv.AppendBool(resp.Body, r.HeaterOn())
	resp.Body = append(resp.Body, `,"alarm_on":`...)
	resp.Body = strconv.AppendBool(resp.Body, r.AlarmOn())
}

// WriteSetpoint posts the (gateway-validated) setpoint through the room's
// web interface's real HTTP endpoint.
func (b *TestbedBackend) WriteSetpoint(room int, value float64) {
	var num [24]byte
	status, _, err := b.tbs[room].HTTPPostSetpoint(string(decfmt.AppendFixed(num[:0], value, 2)))
	if err != nil || status != 200 {
		b.writeFailures++
		return
	}
	b.writes++
}

// ReadDiagnostics appends the board-write tallies.
func (b *TestbedBackend) ReadDiagnostics(resp *tenantapi.Response) {
	resp.Body = append(resp.Body, `,"board_writes":`...)
	resp.Body = strconv.AppendInt(resp.Body, b.writes, 10)
	resp.Body = append(resp.Body, `,"board_write_failures":`...)
	resp.Body = strconv.AppendInt(resp.Body, b.writeFailures, 10)
}

// TenantTier couples a tenant API gateway to the deployed boards it fronts.
type TenantTier struct {
	Gateway *tenantapi.Gateway
	Backend *TestbedBackend
}

// AttachTenantAPI fronts deployed testbeds, one per room, with the tenant
// API tier; the directory's room count is the number of testbeds. Unless
// cfg names its own, the gateway shares the first board's virtual clock,
// metric registry, and event log, so per-route counters, latency
// histograms, and auth-denial events surface through Deployment.Report
// beside the kernel's own mediation events.
func AttachTenantAPI(tbs []*Testbed, dir tenantapi.DirectoryConfig, cfg tenantapi.GatewayConfig) *TenantTier {
	board := tbs[0].Machine.Obs()
	if cfg.Now == nil {
		cfg.Now = board.Now
	}
	if cfg.Registry == nil {
		cfg.Registry = board.Metrics()
	}
	if cfg.Events == nil {
		cfg.Events = board.Events()
	}
	dir.Rooms = len(tbs)
	be := &TestbedBackend{tbs: tbs}
	return &TenantTier{Gateway: tenantapi.NewGateway(tenantapi.NewDirectory(dir), be, cfg), Backend: be}
}

// String summarises the tier for harness traces.
func (t *TenantTier) String() string {
	return fmt.Sprintf("tenant-api tier: %d principals, %d served, %d board writes",
		t.Gateway.Directory().Len(), t.Gateway.Served(), t.Backend.Writes())
}
