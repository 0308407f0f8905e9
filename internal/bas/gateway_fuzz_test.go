package bas

import (
	"bytes"
	"math"
	"testing"
	"time"

	"mkbas/internal/bacnet"
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
