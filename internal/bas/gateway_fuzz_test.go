package bas

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/httpmini"
)

// fuzzDevice is the BACnet device id of every gateway FuzzGatewayExchange
// talks to.
const fuzzDevice = 7

// gatewayFleet deploys one legacy BACnet gateway per platform, booted past
// the first samples.
func gatewayFleet(tb testing.TB) []*Testbed {
	var fleet []*Testbed
	for _, platform := range KnownPlatforms() {
		cfg := DefaultScenario()
		bed := NewTestbed(cfg)
		tb.Cleanup(bed.Machine.Shutdown)
		if _, err := Deploy(platform, bed, cfg, DeployOptions{
			BACnet: BACnetOptions{Enabled: true, DeviceID: fuzzDevice},
		}); err != nil {
			tb.Fatalf("deploy %s: %v", platform, err)
		}
		bed.Machine.Run(10 * time.Second)
		fleet = append(fleet, bed)
	}
	return fleet
}

// FuzzGatewayExchange sends arbitrary legacy PDUs through the BACnet
// gateway of all five platforms and checks values, not just the absence of
// panics. Every platform must answer a request naming the setpoint with the
// same bytes; a setpoint write it acknowledges must be finite and inside
// the controller's band; and reading the setpoint back must return the
// value the controller holds — the acknowledged one, or else the one from
// before — identically on every platform. The Linux gateway reaches its
// controller through the text request and status lines, so this guards
// their setpoint formatting and parsing against the binary paths of the
// microkernels.
func FuzzGatewayExchange(f *testing.F) {
	write := func(v float64) []byte {
		return bacnet.PDU{Type: bacnet.WriteProperty, InvokeID: 1, Device: fuzzDevice, Object: bacnet.ObjSetpoint, Value: v}.AppendEncode(nil)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 30.00004, 14.99996, 30, 15, 22.345, 21.5} {
		f.Add(write(v))
	}
	f.Add(bacnet.PDU{Type: bacnet.ReadProperty, InvokeID: 2, Device: fuzzDevice, Object: bacnet.ObjSetpoint}.AppendEncode(nil))
	f.Add(bacnet.PDU{Type: bacnet.WriteProperty, InvokeID: 3, Device: fuzzDevice, Object: bacnet.ObjHeater, Value: 1}.AppendEncode(nil))
	f.Add(write(23)[:11]) // truncated frame

	fleet := gatewayFleet(f)
	band := DefaultScenario().Controller
	held := make([]float64, len(fleet))
	for i := range held {
		held[i] = band.Setpoint
	}
	readBack := bacnet.PDU{Type: bacnet.ReadProperty, InvokeID: 9, Device: fuzzDevice, Object: bacnet.ObjSetpoint}.AppendEncode(nil)
	f.Fuzz(func(t *testing.T, req []byte) {
		if len(req) > 64 {
			req = req[:64]
		}
		pdu, decErr := bacnet.DecodePDU(req)
		namesSetpoint := decErr == nil && pdu.Device == fuzzDevice && pdu.Object == bacnet.ObjSetpoint
		var first []byte
		for i, bed := range fleet {
			name := KnownPlatforms()[i]
			raw := bed.BACnetExchange(req)
			if raw == nil {
				t.Fatalf("%s: legacy gateway did not answer %x", name, req)
			}
			resp, err := bacnet.DecodePDU(raw)
			if err != nil {
				t.Fatalf("%s: undecodable answer %x to %x: %v", name, raw, req, err)
			}
			if namesSetpoint {
				if i == 0 {
					first = bytes.Clone(raw)
				} else if !bytes.Equal(raw, first) {
					t.Fatalf("%s answered %x with %x, %s with %x", name, req, raw, KnownPlatforms()[0], first)
				}
			}
			if namesSetpoint && pdu.Type == bacnet.WriteProperty && resp.Type == bacnet.Ack {
				v := resp.Value
				if math.IsNaN(v) || math.IsInf(v, 0) || v < band.MinSetpoint || v > band.MaxSetpoint {
					t.Fatalf("%s acknowledged setpoint %v outside [%v, %v]", name, v, band.MinSetpoint, band.MaxSetpoint)
				}
				held[i] = v
			}
			back, err := bacnet.DecodePDU(bed.BACnetExchange(readBack))
			if err != nil || back.Type != bacnet.Ack {
				t.Fatalf("%s: setpoint read-back = %+v, %v", name, back, err)
			}
			if math.Float64bits(back.Value) != math.Float64bits(held[i]) {
				t.Fatalf("%s: setpoint reads back %v, controller holds %v", name, back.Value, held[i])
			}
			if back.Value != held[0] {
				t.Fatalf("%s holds setpoint %v, %s holds %v", name, back.Value, KnownPlatforms()[0], held[0])
			}
		}
	})
}

// FuzzWebSetpoint is FuzzGatewayExchange's counterpart on the web
// interface: it posts the fuzzed bytes, still encoded, as the value field
// of a setpoint form to all five platforms. Every platform must answer
// with the same status and body bytes; a 200 means the value the form
// carried is finite and inside the controller's band; and the BACnet
// read-back must then return exactly that value, or else the one held
// before, on every platform.
func FuzzWebSetpoint(f *testing.F) {
	for _, v := range []string{"NaN", "Inf", "1e309", "30.00004", "14.99996", "22.345", "%32%32", "+22", "0x16", ""} {
		f.Add(v)
	}
	fleet := gatewayFleet(f)
	band := DefaultScenario().Controller
	held := band.Setpoint
	readBack := bacnet.PDU{Type: bacnet.ReadProperty, InvokeID: 9, Device: fuzzDevice, Object: bacnet.ObjSetpoint}.AppendEncode(nil)
	f.Fuzz(func(t *testing.T, value string) {
		if len(value) > 64 {
			value = value[:64]
		}
		// The value the web interface decodes: the form's last value field.
		var p httpmini.Parser
		body := "value=" + value
		p.Feed([]byte("POST /setpoint HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: " +
			strconv.Itoa(len(body)) + "\r\n\r\n" + body))
		req, err := p.Next()
		if err != nil || req == nil {
			t.Fatalf("the posted form does not parse: %v", err)
		}
		sent, parseErr := strconv.ParseFloat(req.FormValue("value"), 64)
		var first string
		firstStatus := 0
		for i, bed := range fleet {
			name := KnownPlatforms()[i]
			status, got, err := bed.HTTPPostSetpoint(value)
			if err != nil {
				t.Fatalf("%s: POST value=%q: %v", name, value, err)
			}
			if i == 0 {
				first, firstStatus = string(got), status
			} else if status != firstStatus || string(got) != first {
				t.Fatalf("%s answered value=%q with %d %q, %s with %d %q", name, value, status, got, KnownPlatforms()[0], firstStatus, first)
			}
			want := held
			if status == 200 {
				if parseErr != nil || math.IsNaN(sent) || math.IsInf(sent, 0) || sent < band.MinSetpoint || sent > band.MaxSetpoint {
					t.Fatalf("%s accepted value=%q (%v, %v) outside [%v, %v]", name, value, sent, parseErr, band.MinSetpoint, band.MaxSetpoint)
				}
				want = sent
			}
			back, err := bacnet.DecodePDU(bed.BACnetExchange(readBack))
			if err != nil || back.Type != bacnet.Ack {
				t.Fatalf("%s: setpoint read-back = %+v, %v", name, back, err)
			}
			if math.Float64bits(back.Value) != math.Float64bits(want) {
				t.Fatalf("%s: after value=%q (%d) the setpoint reads back %v, want %v", name, value, status, back.Value, want)
			}
		}
		if firstStatus == 200 {
			held = sent
		}
	})
}
