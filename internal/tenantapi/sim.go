package tenantapi

import (
	"strconv"

	"mkbas/internal/decfmt"
	"mkbas/internal/obs"
)

// SimBackend is the load generator's stand-in for a head-end: per-room
// state that is a pure function of (room, virtual time, writes so far), so
// a million-request campaign aggregates byte-identically at any worker
// count. Reads allocate nothing.
type SimBackend struct {
	now       func() obs.Time
	setpoints []float64
	writes    int64
}

// NewSimBackend builds a backend with rooms rooms at setpoint 21°C.
func NewSimBackend(rooms int, now func() obs.Time) *SimBackend {
	if rooms <= 0 {
		rooms = 16
	}
	sp := make([]float64, rooms)
	for i := range sp {
		sp[i] = 21
	}
	return &SimBackend{now: now, setpoints: sp}
}

// Rooms is the room count.
func (b *SimBackend) Rooms() int { return len(b.setpoints) }

// Writes is the lifetime accepted setpoint-write count.
func (b *SimBackend) Writes() int64 { return b.writes }

// Setpoint reads a room's current setpoint.
func (b *SimBackend) Setpoint(room int) float64 { return b.setpoints[room] }

// ReadRoom models the room temperature as the setpoint plus a deterministic
// ±0.5°C ripple derived from (room, minute-of-virtual-time).
func (b *SimBackend) ReadRoom(room int, resp *Response) {
	minute := int64(b.now()) / int64(60e9)
	ripple := float64(int64(splitmix64(uint64(minute)^uint64(room)*0x9e37)&1023))/1024.0 - 0.5
	resp.Body = append(resp.Body, `,"temp_c":`...)
	resp.Body = decfmt.AppendFixed(resp.Body, b.setpoints[room]+ripple, 2)
	resp.Body = append(resp.Body, `,"setpoint":`...)
	resp.Body = decfmt.AppendFixed(resp.Body, b.setpoints[room], 1)
}

// WriteSetpoint applies the (gateway-validated) write immediately.
func (b *SimBackend) WriteSetpoint(room int, value float64) {
	b.setpoints[room] = value
	b.writes++
}

// ReadDiagnostics appends the write tally.
func (b *SimBackend) ReadDiagnostics(resp *Response) {
	resp.Body = append(resp.Body, `,"backend_writes":`...)
	resp.Body = strconv.AppendInt(resp.Body, b.writes, 10)
}
