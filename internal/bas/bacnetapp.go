package bas

import (
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// BACnetPort is the gateway's network port (BACnet/IP's 47808).
const BACnetPort vnet.Port = 47808

// NameBACnetGateway is the gateway process image name.
const NameBACnetGateway = "bacnetGateway"

// BACnetOptions enables the field-bus gateway on a deployment: the Fig. 1
// integration story, where the controller also speaks the building's legacy
// protocol. Every platform backend consults it, so a building can mix
// platforms room by room behind one protocol.
type BACnetOptions struct {
	// Enabled adds the gateway process.
	Enabled bool
	// Key, when non-empty, interposes the secure proxy (HMAC + anti-replay)
	// in front of the legacy protocol. Empty models the unprotected legacy
	// deployment the paper's introduction criticises.
	Key []byte
	// DeviceID is the BACnet device identifier; zero means 1.
	DeviceID uint32
	// SupervisionWindow, when positive, arms the room's supervisory-traffic
	// watchdog: if no verified supervisory frame reaches the gateway for
	// this long, the controller falls back to the last-committed setpoint
	// (degraded-mode autonomy). Zero — the default for standalone boards —
	// deploys no watchdog and costs nothing.
	SupervisionWindow time.Duration
}

// gatewayStore adapts any platform's ControlClient to a BACnet property
// store. Temperature, heater, and alarm are read-only points; the setpoint
// is writable (and the controller still clamps it).
type gatewayStore struct {
	ctrl ControlClient
	sup  *Supervision // nil outside building deployments
}

var _ bacnet.PropertyStore = (*gatewayStore)(nil)

func (s *gatewayStore) ReadProperty(obj bacnet.ObjectID) (float64, uint8) {
	st, err := s.ctrl.Status()
	if err != nil {
		return 0, bacnet.CodeBadRequest
	}
	switch obj {
	case bacnet.ObjTemperature:
		return st.Temp, 0
	case bacnet.ObjSetpoint:
		return st.Setpoint, 0
	case bacnet.ObjHeater:
		return boolPoint(st.HeaterOn), 0
	case bacnet.ObjAlarm:
		return boolPoint(st.AlarmOn), 0
	default:
		return 0, bacnet.CodeUnknownObject
	}
}

func (s *gatewayStore) WriteProperty(obj bacnet.ObjectID, value float64) uint8 {
	switch obj {
	case bacnet.ObjSetpoint:
		if err := s.ctrl.SetSetpoint(value); err != nil {
			return bacnet.CodeWriteDenied
		}
		// A setpoint write that survived the frame checks and the
		// controller's range clamp is the committed supervisory state a
		// later outage falls back to.
		s.sup.NoteCommit(value)
		return 0
	case bacnet.ObjTemperature, bacnet.ObjHeater, bacnet.ObjAlarm:
		// The gateway's IPC authority has no path to the drivers; the
		// points are structurally read-only on every platform.
		return bacnet.CodeWriteDenied
	default:
		return bacnet.CodeUnknownObject
	}
}

func boolPoint(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// bacnetGateway is the gateway process's frame handling, optional secure
// proxy, and observability wiring; bacnetGatewayBody runs it on every
// kernel.
//
// The deframer and the two reply buffers belong to the process, not to one
// connection, so a connection-per-exchange poll reuses them instead of
// growing fresh ones. Connections are served one at a time, and every
// platform's net write syscall copies into the stack before it returns, so
// the buffers are free again as soon as a reply is written.
type bacnetGateway struct {
	server   *bacnet.Server
	proxy    *bacnet.Proxy
	events   *obs.EventLog
	accepted *obs.Counter
	rejected *obs.Counter
	sup      *Supervision // nil outside building deployments

	def      bacnet.Deframer
	resp     []byte // the response PDU, sealed on proxied rooms
	frameBuf []byte // resp, length-prefixed
}

// newBACnetGateway assembles the neutral gateway. state seeds the proxy's
// anti-replay nonce floor: the deployment owns one ProxyState per board, so
// a gateway reincarnated by the platform's recovery machinery still rejects
// frames captured before its restart (the satellite fix for the replay
// window a fresh in-memory table would reopen).
func newBACnetGateway(bopts BACnetOptions, ctrl ControlClient, state *bacnet.ProxyState, board *obs.Board, sup *Supervision) *bacnetGateway {
	deviceID := bopts.DeviceID
	if deviceID == 0 {
		deviceID = 1
	}
	server := bacnet.NewServer(deviceID, &gatewayStore{ctrl: ctrl, sup: sup})
	gw := &bacnetGateway{
		server:   server,
		events:   board.Events(),
		accepted: board.Metrics().Counter("bacnet_frames_accepted_total"),
		rejected: board.Metrics().Counter("bacnet_frames_rejected_total"),
		sup:      sup,
	}
	if len(bopts.Key) > 0 {
		gw.proxy = bacnet.NewProxyResuming(bopts.Key, server, state)
	}
	return gw
}

// serveConn handles one connection until EOF. The transport is
// connection-per-exchange — clients (the building head-end, the host
// harness) dial, exchange, and close, mirroring BACnet/IP's datagram nature
// — so a serial accept loop never starves a peer behind a long-lived
// connection. Legacy mode answers every frame; proxy mode silently drops
// unauthenticated or stale frames — and records each drop as a security
// event, so the mediation layer that stopped a bus attack shows up in
// reports exactly like an ACM or capability denial.
func (gw *bacnetGateway) serveConn(conn netConn) {
	defer conn.Close()
	gw.def.Reset()
	for {
		for {
			frame := gw.def.Next()
			if frame == nil {
				break
			}
			if gw.proxy != nil {
				resp, err := gw.proxy.AppendResponse(gw.resp[:0], frame)
				if err != nil {
					gw.rejected.Inc()
					gw.events.Emit(obs.SecurityEvent{
						Kind:      obs.EventFrameRejected,
						Mechanism: obs.MechSecureProxy,
						Denied:    true,
						Src:       "bas-bus",
						Dst:       NameBACnetGateway,
						Detail:    err.Error(),
					})
					continue
				}
				gw.resp = resp
			} else {
				gw.resp = gw.server.AppendResponse(gw.resp[:0], frame)
			}
			gw.accepted.Inc()
			// Every frame that survived the checks above is supervisory
			// contact. On proxied rooms that means a verified head-end frame;
			// on legacy rooms anything on the bus counts — degraded-mode
			// detection inherits exactly the protocol's trust.
			gw.sup.NoteFrame()
			gw.frameBuf = bacnet.AppendFrame(gw.frameBuf[:0], gw.resp)
			if err := conn.Write(gw.frameBuf); err != nil {
				return
			}
		}
		data, err := conn.Read(0)
		if err != nil {
			return
		}
		gw.def.Feed(data)
	}
}

// BACnetExchange sends one raw (legacy) frame from the host side and runs
// the board until the response arrives; nil response means the gateway
// dropped the frame (proxy mode) or never answered.
func (tb *Testbed) BACnetExchange(raw []byte) []byte {
	return tb.BACnetExchangeFrame(bacnet.AppendFrame(nil, raw))
}

// BACnetExchangeFrame is BACnetExchange for a pre-framed (length-prefixed)
// byte string — the shape a bus attacker replays verbatim from a capture.
func (tb *Testbed) BACnetExchangeFrame(framed []byte) []byte {
	conn, err := tb.Net.Dial(BACnetPort)
	if err != nil {
		return nil
	}
	defer conn.Close()
	if err := conn.Write(framed); err != nil {
		return nil
	}
	var d bacnet.Deframer
	for i := 0; i < 40; i++ {
		tb.Machine.Run(50 * time.Millisecond)
		d.Feed(conn.ReadAll())
		if frame := d.Next(); frame != nil {
			return frame
		}
	}
	return nil
}
