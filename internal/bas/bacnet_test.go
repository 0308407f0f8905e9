package bas

import (
	"strings"
	"testing"
	"time"

	"mkbas/internal/bacnet"
)

func deployGateway(t *testing.T, key []byte) (*Testbed, *MinixDeployment) {
	t.Helper()
	cfg := DefaultScenario()
	tb := NewTestbed(cfg)
	t.Cleanup(tb.Machine.Shutdown)
	dep, err := Deploy(PlatformMinix, tb, cfg, DeployOptions{
		BACnet: BACnetOptions{Enabled: true, Key: key, DeviceID: 7},
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	tb.Machine.Run(10 * time.Second)
	return tb, dep.(*MinixDeployment)
}

func TestBACnetLegacyReadAndWrite(t *testing.T) {
	tb, _ := deployGateway(t, nil)

	raw := tb.BACnetExchange(bacnet.PDU{
		Type: bacnet.ReadProperty, InvokeID: 1, Device: 7, Object: bacnet.ObjTemperature,
	}.AppendEncode(nil))
	resp, err := bacnet.DecodePDU(raw)
	if err != nil {
		t.Fatalf("decode: %v (raw %v)", err, raw)
	}
	if resp.Type != bacnet.Ack || resp.Value < 17 || resp.Value > 23 {
		t.Fatalf("temperature resp = %+v", resp)
	}

	raw = tb.BACnetExchange(bacnet.PDU{
		Type: bacnet.WriteProperty, InvokeID: 2, Device: 7, Object: bacnet.ObjSetpoint, Value: 25,
	}.AppendEncode(nil))
	resp, err = bacnet.DecodePDU(raw)
	if err != nil || resp.Type != bacnet.Ack {
		t.Fatalf("setpoint write resp = %+v, %v", resp, err)
	}
	tb.Machine.Run(time.Hour)
	if temp := tb.Room.Temperature(); temp < 24 || temp > 26 {
		t.Fatalf("room = %.2f, want ~25 after BACnet setpoint write", temp)
	}
}

func TestBACnetLegacyIsSpoofableButActuatorsUnreachable(t *testing.T) {
	// The integration point of the Fig. 1 story: even with a completely
	// unauthenticated field protocol facing the network, the gateway's IPC
	// authority bounds the damage — actuator points are structurally
	// read-only because the ACM gives the gateway no path to the drivers.
	tb, dep := deployGateway(t, nil)

	raw := tb.BACnetExchange(bacnet.PDU{
		Type: bacnet.WriteProperty, Device: 7, Object: bacnet.ObjHeater, Value: 0,
	}.AppendEncode(nil))
	resp, err := bacnet.DecodePDU(raw)
	if err != nil || resp.Type != bacnet.ErrorPDU || resp.Code != bacnet.CodeWriteDenied {
		t.Fatalf("heater write resp = %+v, %v (want write-denied)", resp, err)
	}
	if dep.Kernel.Stats().IPCDenied != 0 {
		// The gateway should not even attempt a denied IPC: the denial is
		// structural (no RPC exists), not a runtime ACM rejection.
		t.Logf("note: %d ACM denials recorded", dep.Kernel.Stats().IPCDenied)
	}

	// Replay on the legacy gateway works — the protocol-level weakness the
	// paper's introduction describes.
	frame := bacnet.PDU{Type: bacnet.WriteProperty, Device: 7, Object: bacnet.ObjSetpoint, Value: 27}.AppendEncode(nil)
	first, err := bacnet.DecodePDU(tb.BACnetExchange(frame))
	if err != nil || first.Type != bacnet.Ack {
		t.Fatalf("first write: %+v %v", first, err)
	}
	replayed, err := bacnet.DecodePDU(tb.BACnetExchange(frame))
	if err != nil || replayed.Type != bacnet.Ack {
		t.Fatalf("legacy gateway rejected a replay: %+v %v", replayed, err)
	}
}

func TestBACnetSecureProxyEndToEnd(t *testing.T) {
	key := []byte("building-42-device-7")
	tb, _ := deployGateway(t, key)
	client := bacnet.NewSecureClient(key, 9001)

	// Authenticated read.
	respFrame := tb.BACnetExchange(client.AppendSeal(nil, bacnet.PDU{
		Type: bacnet.ReadProperty, Device: 7, Object: bacnet.ObjSetpoint,
	}))
	if respFrame == nil {
		t.Fatal("proxy dropped a legitimate frame")
	}
	resp, err := client.Open(respFrame)
	if err != nil || resp.Type != bacnet.Ack || resp.Value != 22 {
		t.Fatalf("secure read = %+v, %v", resp, err)
	}

	// Unauthenticated legacy frame: silently dropped.
	if raw := tb.BACnetExchange(bacnet.PDU{
		Type: bacnet.WriteProperty, Device: 7, Object: bacnet.ObjSetpoint, Value: 30,
	}.AppendEncode(nil)); raw != nil {
		t.Fatalf("proxy answered an unauthenticated frame: %v", raw)
	}

	// Replayed secure frame: dropped, and the setpoint stays put.
	frame := client.AppendSeal(nil, bacnet.PDU{
		Type: bacnet.WriteProperty, Device: 7, Object: bacnet.ObjSetpoint, Value: 24,
	})
	if respFrame := tb.BACnetExchange(frame); respFrame == nil {
		t.Fatal("original secure write dropped")
	}
	if respFrame := tb.BACnetExchange(frame); respFrame != nil {
		t.Fatal("proxy answered a replayed frame")
	}
	status, body, err := tb.HTTPGet("/status")
	if err != nil || status != 200 {
		t.Fatalf("status: %d %v", status, err)
	}
	if want := "setpoint=24.00"; !strings.Contains(body, want) {
		t.Fatalf("status %q missing %q (write applied once)", body, want)
	}
}

func TestBACnetGatewayOnEveryPlatform(t *testing.T) {
	// The gateway is platform-neutral: the same BACnetOptions boot it on all
	// five registered backends, which is what lets a building mix platforms
	// room by room behind one supervisory protocol.
	key := []byte("fleet-key")
	for _, platform := range KnownPlatforms() {
		t.Run(string(platform), func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			t.Cleanup(tb.Machine.Shutdown)
			_, err := Deploy(platform, tb, cfg, DeployOptions{
				BACnet: BACnetOptions{Enabled: true, Key: key, DeviceID: 3},
			})
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			tb.Machine.Run(10 * time.Second)

			client := bacnet.NewSecureClient(key, 77)
			respFrame := tb.BACnetExchange(client.AppendSeal(nil, bacnet.PDU{
				Type: bacnet.ReadProperty, Device: 3, Object: bacnet.ObjTemperature,
			}))
			if respFrame == nil {
				t.Fatal("gateway dropped a legitimate secure read")
			}
			resp, err := client.Open(respFrame)
			if err != nil || resp.Type != bacnet.Ack || resp.Value < 17 || resp.Value > 23 {
				t.Fatalf("secure read = %+v, %v", resp, err)
			}
			// Spoofed legacy frame: dropped, and accounted as a denial in the
			// unified security-event schema.
			if raw := tb.BACnetExchange(bacnet.PDU{
				Type: bacnet.WriteProperty, Device: 3, Object: bacnet.ObjSetpoint, Value: 30,
			}.AppendEncode(nil)); raw != nil {
				t.Fatalf("proxy answered an unauthenticated frame: %v", raw)
			}
			if n := tb.Machine.Obs().Metrics().Counter("bacnet_frames_rejected_total").Value(); n != 1 {
				t.Fatalf("bacnet_frames_rejected_total = %d, want 1", n)
			}
		})
	}
}

func TestBACnetGatewayRestartKeepsNonceFloor(t *testing.T) {
	// Deployment-level half of the replay-window fix: the gateway process is
	// reincarnated by RS after a crash, and the reborn proxy must still hold
	// the pre-crash nonce floor (the deployment owns the ProxyState).
	key := []byte("building-42-device-7")
	tb, dep := deployGateway(t, key)
	client := bacnet.NewSecureClient(key, 9001)

	frame := client.AppendSeal(nil, bacnet.PDU{
		Type: bacnet.WriteProperty, Device: 7, Object: bacnet.ObjSetpoint, Value: 24,
	})
	if respFrame := tb.BACnetExchange(frame); respFrame == nil {
		t.Fatal("original secure write dropped")
	}

	if err := dep.Kernel.CrashProcess(NameBACnetGateway); err != nil {
		t.Fatalf("crash: %v", err)
	}
	tb.Machine.Run(5 * time.Second) // RS backoff + respawn
	if _, err := dep.Kernel.EndpointOf(NameBACnetGateway); err != nil {
		t.Fatalf("gateway not reincarnated: %v", err)
	}

	// The captured pre-restart frame must stay dead after the restart.
	if respFrame := tb.BACnetExchangeFrame(bacnet.AppendFrame(nil, frame)); respFrame != nil {
		t.Fatal("reincarnated gateway accepted a pre-restart replay")
	}
	// Fresh traffic flows again.
	respFrame := tb.BACnetExchange(client.AppendSeal(nil, bacnet.PDU{
		Type: bacnet.ReadProperty, Device: 7, Object: bacnet.ObjSetpoint,
	}))
	if respFrame == nil {
		t.Fatal("reincarnated gateway dropped fresh traffic")
	}
	resp, err := client.Open(respFrame)
	if err != nil || resp.Value != 24 {
		t.Fatalf("post-restart read = %+v, %v", resp, err)
	}
}
