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

// TestbedBackend adapts a deployed testbed to the tenant gateway's Backend:
// room reads come straight from the plant (the head-end's cached view), and
// setpoint writes ride the real web-interface HTTP+IPC path, so every tenant
// write a compromised credential lands is mediated — and adjudicated — by
// the platform under test, exactly like an operator's.
//
// Harness-thread only: WriteSetpoint steps the virtual machine through
// Testbed.HTTPPostSetpoint and must never be called from a clock callback.
type TestbedBackend struct {
	tb            *Testbed
	writes        int64
	writeFailures int64
}

// NewTestbedBackend fronts tb's single room.
func NewTestbedBackend(tb *Testbed) *TestbedBackend { return &TestbedBackend{tb: tb} }

// Rooms is 1: a testbed is one board heating one room.
func (b *TestbedBackend) Rooms() int { return 1 }

// Writes reports setpoint writes the board accepted (HTTP 200).
func (b *TestbedBackend) Writes() int64 { return b.writes }

// ReadRoom appends the plant's live state.
func (b *TestbedBackend) ReadRoom(_ int, resp *tenantapi.Response) {
	r := b.tb.Room
	resp.Body = append(resp.Body, `,"temp_c":`...)
	resp.Body = decfmt.AppendFixed(resp.Body, r.Temperature(), 2)
	resp.Body = append(resp.Body, `,"heater_on":`...)
	resp.Body = strconv.AppendBool(resp.Body, r.HeaterOn())
	resp.Body = append(resp.Body, `,"alarm_on":`...)
	resp.Body = strconv.AppendBool(resp.Body, r.AlarmOn())
}

// WriteSetpoint posts the (gateway-validated) setpoint through the web
// interface's real HTTP endpoint.
func (b *TestbedBackend) WriteSetpoint(_ int, value float64) {
	var num [24]byte
	status, _, err := b.tb.HTTPPostSetpoint(string(decfmt.AppendFixed(num[:0], value, 2)))
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

// TenantTier couples a tenant API gateway to the deployed board it fronts.
type TenantTier struct {
	Gateway   *tenantapi.Gateway
	Directory *tenantapi.Directory
	Backend   *TestbedBackend
}

// AttachTenantAPI fronts a deployed testbed with the tenant API tier. The
// gateway shares the board's virtual clock, metric registry, and event log,
// so per-route counters, latency histograms, and auth-denial events surface
// through Deployment.Report beside the kernel's own mediation events.
func AttachTenantAPI(tb *Testbed, dir tenantapi.DirectoryConfig, cfg tenantapi.GatewayConfig) *TenantTier {
	board := tb.Machine.Obs()
	if cfg.Now == nil {
		cfg.Now = board.Now
	}
	if cfg.Registry == nil {
		cfg.Registry = board.Metrics()
	}
	if cfg.Events == nil {
		cfg.Events = board.Events()
	}
	d := tenantapi.NewDirectory(dir)
	be := NewTestbedBackend(tb)
	gw := tenantapi.NewGateway(d, be, cfg)
	return &TenantTier{Gateway: gw, Directory: d, Backend: be}
}

// Serve drives one request through the tier from the harness thread and
// formats nothing: callers read the typed outcome and reused body.
func (t *TenantTier) Serve(req *tenantapi.Request, resp *tenantapi.Response) tenantapi.Outcome {
	return t.Gateway.Handle(req, resp)
}

// String summarises the tier for harness traces.
func (t *TenantTier) String() string {
	return fmt.Sprintf("tenant-api tier: %d principals, %d served, %d board writes",
		t.Directory.Len(), t.Gateway.Served(), t.Backend.Writes())
}
