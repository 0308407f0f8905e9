package bacnet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// memStore is a test device: temperature read-only, setpoint/heater/alarm
// writable.
type memStore struct {
	temp, setpoint float64
	heater, alarm  float64
}

func (s *memStore) ReadProperty(obj ObjectID) (float64, uint8) {
	switch obj {
	case ObjTemperature:
		return s.temp, 0
	case ObjSetpoint:
		return s.setpoint, 0
	case ObjHeater:
		return s.heater, 0
	case ObjAlarm:
		return s.alarm, 0
	default:
		return 0, CodeUnknownObject
	}
}

func (s *memStore) WriteProperty(obj ObjectID, value float64) uint8 {
	switch obj {
	case ObjTemperature:
		return CodeWriteDenied
	case ObjSetpoint:
		s.setpoint = value
	case ObjHeater:
		s.heater = value
	case ObjAlarm:
		s.alarm = value
	default:
		return CodeUnknownObject
	}
	return 0
}

func TestPDUEncodeDecodeRoundTrip(t *testing.T) {
	f := func(typ uint8, invoke uint8, device uint32, object uint16, value float64, code uint8) bool {
		p := PDU{
			Type:     PDUType(typ%4 + 1),
			InvokeID: invoke,
			Device:   device,
			Object:   ObjectID(object),
			Value:    value,
			Code:     code,
		}
		got, err := DecodePDU(p.Encode())
		if err != nil {
			return false
		}
		if p.Value != p.Value { // NaN: compare bitwise via re-encode
			return string(got.Encode()) == string(p.Encode())
		}
		return got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodePDU([]byte{1, 2, 3}); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short err = %v", err)
	}
	bad := PDU{Type: Ack}.Encode()
	bad[0] = 99
	if _, err := DecodePDU(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad type err = %v", err)
	}
}

func TestDeframer(t *testing.T) {
	var d Deframer
	a := Frame([]byte("hello"))
	b := Frame([]byte("world!"))
	both := append(append([]byte{}, a...), b...)
	// Feed byte by byte.
	var got []string
	for _, c := range both {
		d.Feed([]byte{c})
		for {
			f := d.Next()
			if f == nil {
				break
			}
			got = append(got, string(f))
		}
	}
	if len(got) != 2 || got[0] != "hello" || got[1] != "world!" {
		t.Fatalf("frames = %q", got)
	}
}

// FuzzDecodePDU feeds arbitrary stream bytes to the PDU decoder, which
// parses every frame a lateral attacker forges on the bus. The bytes are
// decoded directly and as the frames a Deframer cuts from them. Decoding
// must never panic, and an accepted PDU must re-encode to exactly the bytes
// it came from, its value bit for bit (a NaN included). Feeding the stream in
// the chunks splits describes must yield the frames feeding it whole does.
func FuzzDecodePDU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		checkDecode(t, data)
		whole := deframeAll(slices.Clone(data), nil)
		split := deframeAll(slices.Clone(data), splits)
		if !slices.EqualFunc(whole, split, bytes.Equal) {
			t.Fatalf("split feed %v yields frames %x, whole feed %x", splits, split, whole)
		}
		for _, frame := range whole {
			checkDecode(t, frame)
		}
	})
}

// checkDecode asserts that an accepted PDU re-encodes to its input.
func checkDecode(t *testing.T, data []byte) {
	p, err := DecodePDU(data)
	if err != nil {
		return
	}
	if enc := p.AppendEncode(nil); !bytes.Equal(enc, data[:pduSize]) {
		t.Fatalf("PDU %+v decoded from %x re-encodes as %x", p, data[:pduSize], enc)
	}
	if got, want := math.Float64bits(p.Value), binary.BigEndian.Uint64(data[8:]); got != want {
		t.Fatalf("value bits %#x, encoded %#x", got, want)
	}
}

// deframeAll feeds data to a fresh Deframer in chunks of 1+splits[i]%8
// bytes, cycling through splits (one chunk when splits is empty), and
// returns every frame it yields. Each chunk is clipped so the deframer's
// appends never reach into the next one.
func deframeAll(data, splits []byte) [][]byte {
	var d Deframer
	var frames [][]byte
	for i := 0; len(data) > 0; i++ {
		n := len(data)
		if len(splits) > 0 {
			n = min(n, 1+int(splits[i%len(splits)]%8))
		}
		d.Feed(data[:n:n])
		data = data[n:]
		for f := d.Next(); f != nil; f = d.Next() {
			frames = append(frames, f)
		}
	}
	return frames
}

func TestLegacyServerReadWrite(t *testing.T) {
	store := &memStore{temp: 21.5, setpoint: 22}
	srv := NewServer(7, store)

	resp := srv.Handle(PDU{Type: ReadProperty, Device: 7, Object: ObjTemperature, InvokeID: 3})
	if resp.Type != Ack || resp.Value != 21.5 || resp.InvokeID != 3 {
		t.Fatalf("read resp = %+v", resp)
	}
	resp = srv.Handle(PDU{Type: WriteProperty, Device: 7, Object: ObjSetpoint, Value: 24})
	if resp.Type != Ack || store.setpoint != 24 {
		t.Fatalf("write resp = %+v store=%+v", resp, store)
	}
	resp = srv.Handle(PDU{Type: WriteProperty, Device: 7, Object: ObjTemperature, Value: 99})
	if resp.Type != ErrorPDU || resp.Code != CodeWriteDenied {
		t.Fatalf("read-only write resp = %+v", resp)
	}
	resp = srv.Handle(PDU{Type: ReadProperty, Device: 7, Object: 0xFFFF})
	if resp.Type != ErrorPDU || resp.Code != CodeUnknownObject {
		t.Fatalf("unknown object resp = %+v", resp)
	}
	resp = srv.Handle(PDU{Type: ReadProperty, Device: 8, Object: ObjTemperature})
	if resp.Type != ErrorPDU || resp.Code != CodeBadRequest {
		t.Fatalf("wrong device resp = %+v", resp)
	}
}

// TestLegacyProtocolIsSpoofableAndReplayable documents the vulnerability the
// paper's introduction describes: the legacy protocol accepts anything.
func TestLegacyProtocolIsSpoofableAndReplayable(t *testing.T) {
	store := &memStore{setpoint: 22}
	srv := NewServer(7, store)

	// Spoof: an attacker forges a heater-off write; nothing stops it.
	forged := PDU{Type: WriteProperty, Device: 7, Object: ObjHeater, Value: 0}
	if resp := srv.Handle(forged); resp.Type != Ack {
		t.Fatalf("legacy server rejected a forged write: %+v", resp)
	}

	// Replay: the captured raw frame applies again verbatim.
	raw := PDU{Type: WriteProperty, Device: 7, Object: ObjSetpoint, Value: 30}.Encode()
	for i := 0; i < 3; i++ {
		resp, err := DecodePDU(srv.HandleFrame(raw))
		if err != nil || resp.Type != Ack {
			t.Fatalf("replay %d rejected: %+v %v", i, resp, err)
		}
	}
	if store.setpoint != 30 {
		t.Fatalf("setpoint = %v", store.setpoint)
	}
}

func TestSecureProxyHappyPath(t *testing.T) {
	key := []byte("bsl3-device-key-0001")
	store := &memStore{temp: 20}
	proxy := NewProxy(key, NewServer(7, store))
	client := NewSecureClient(key, 1001)

	frame := client.Seal(PDU{Type: ReadProperty, Device: 7, Object: ObjTemperature})
	respFrame, err := proxy.HandleFrame(frame)
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	resp, err := client.Open(respFrame)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if resp.Type != Ack || resp.Value != 20 {
		t.Fatalf("resp = %+v", resp)
	}
	// A second request with the next nonce also works.
	frame = client.Seal(PDU{Type: WriteProperty, Device: 7, Object: ObjSetpoint, Value: 23})
	if _, err := proxy.HandleFrame(frame); err != nil {
		t.Fatalf("second request: %v", err)
	}
	if store.setpoint != 23 {
		t.Fatal("write did not reach the legacy device")
	}
	if proxy.Accepted() != 2 || proxy.Rejected() != 0 {
		t.Fatalf("counters = %d/%d", proxy.Accepted(), proxy.Rejected())
	}
}

func TestSecureProxyRejectsForgery(t *testing.T) {
	key := []byte("real-key")
	proxy := NewProxy(key, NewServer(7, &memStore{}))

	// No key at all: raw legacy frame.
	if _, err := proxy.HandleFrame(PDU{Type: WriteProperty, Device: 7, Object: ObjHeater}.Encode()); err == nil {
		t.Fatal("raw legacy frame accepted")
	}
	// Wrong key.
	wrong := NewSecureClient([]byte("guessed-key"), 1)
	if _, err := proxy.HandleFrame(wrong.Seal(PDU{Type: WriteProperty, Device: 7, Object: ObjHeater})); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("wrong-key err = %v, want ErrBadMAC", err)
	}
	if proxy.Rejected() != 2 {
		t.Fatalf("rejected = %d", proxy.Rejected())
	}
}

func TestSecureProxyRejectsTampering(t *testing.T) {
	key := []byte("real-key")
	proxy := NewProxy(key, NewServer(7, &memStore{}))
	client := NewSecureClient(key, 1)
	frame := client.Seal(PDU{Type: WriteProperty, Device: 7, Object: ObjSetpoint, Value: 22})
	// Flip one bit of the value in flight.
	frame[len(frame)-3] ^= 0x01
	if _, err := proxy.HandleFrame(frame); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered frame err = %v, want ErrBadMAC", err)
	}
}

func TestSecureProxyRejectsReplay(t *testing.T) {
	key := []byte("real-key")
	store := &memStore{}
	proxy := NewProxy(key, NewServer(7, store))
	client := NewSecureClient(key, 1)

	frame := client.Seal(PDU{Type: WriteProperty, Device: 7, Object: ObjSetpoint, Value: 25})
	if _, err := proxy.HandleFrame(frame); err != nil {
		t.Fatalf("original: %v", err)
	}
	store.setpoint = 22 // operator restores it
	if _, err := proxy.HandleFrame(frame); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
	if store.setpoint != 22 {
		t.Fatal("replay reached the legacy device")
	}
	// Old (lower) nonces from the same client are also dead.
	c2 := NewSecureClient(key, 1) // fresh counter, reuses nonce 1
	if _, err := proxy.HandleFrame(c2.Seal(PDU{Type: ReadProperty, Device: 7, Object: ObjTemperature})); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale nonce err = %v, want ErrReplay", err)
	}
}

func TestSecureClientsAreIndependent(t *testing.T) {
	key := []byte("shared")
	proxy := NewProxy(key, NewServer(7, &memStore{}))
	a := NewSecureClient(key, 1)
	b := NewSecureClient(key, 2)
	if _, err := proxy.HandleFrame(a.Seal(PDU{Type: ReadProperty, Device: 7, Object: ObjTemperature})); err != nil {
		t.Fatalf("a: %v", err)
	}
	// b's first nonce is 1, same number as a's — but a different client id,
	// so it is fresh.
	if _, err := proxy.HandleFrame(b.Seal(PDU{Type: ReadProperty, Device: 7, Object: ObjTemperature})); err != nil {
		t.Fatalf("b: %v", err)
	}
}

func TestClientRejectsResponseReplay(t *testing.T) {
	key := []byte("shared")
	proxy := NewProxy(key, NewServer(7, &memStore{temp: 20}))
	client := NewSecureClient(key, 1)
	first, err := proxy.HandleFrame(client.Seal(PDU{Type: ReadProperty, Device: 7, Object: ObjTemperature}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open(first); err != nil {
		t.Fatal(err)
	}
	// New request goes out; the attacker answers with the captured old
	// response.
	if _, err := proxy.HandleFrame(client.Seal(PDU{Type: ReadProperty, Device: 7, Object: ObjSetpoint})); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open(first); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale response err = %v, want ErrReplay", err)
	}
}

func TestSecureFrameTooShort(t *testing.T) {
	proxy := NewProxy([]byte("k"), NewServer(7, &memStore{}))
	if _, err := proxy.HandleFrame([]byte{1, 2, 3}); !errors.Is(err, ErrShortSecure) {
		t.Fatalf("err = %v, want ErrShortSecure", err)
	}
}

func TestProxyRestartReplayWindow(t *testing.T) {
	key := []byte("bsl3-device-key-0001")
	store := &memStore{}
	server := NewServer(7, store)
	proxy := NewProxy(key, server)
	client := NewSecureClient(key, 1)

	frame := client.Seal(PDU{Type: WriteProperty, Device: 7, Object: ObjSetpoint, Value: 25})
	if _, err := proxy.HandleFrame(frame); err != nil {
		t.Fatalf("original: %v", err)
	}
	store.setpoint = 22 // operator restores it

	// The regression this guards against: a proxy restarted with a fresh
	// in-memory nonce table accepts any captured pre-restart frame again.
	fresh := NewProxy(key, server)
	if _, err := fresh.HandleFrame(frame); err != nil {
		t.Fatalf("fresh-table proxy rejected the replay; the reopened window this test documents is gone: %v", err)
	}
	store.setpoint = 22

	// A proxy resumed from the previous incarnation's state keeps the floor.
	resumed := NewProxyResuming(key, server, proxy.State())
	if _, err := resumed.HandleFrame(frame); !errors.Is(err, ErrReplay) {
		t.Fatalf("resumed proxy replay err = %v, want ErrReplay", err)
	}
	if store.setpoint != 22 {
		t.Fatal("pre-restart replay reached the legacy device")
	}
	if resumed.State() != proxy.State() {
		t.Fatal("resumed proxy does not share the live state pointer")
	}

	// Fresh traffic still flows, and advances the shared floor.
	next := client.Seal(PDU{Type: ReadProperty, Device: 7, Object: ObjTemperature})
	if _, err := resumed.HandleFrame(next); err != nil {
		t.Fatalf("post-restart frame: %v", err)
	}
	if got := proxy.State().LastNonce[1]; got != 2 {
		t.Fatalf("shared nonce floor = %d, want 2", got)
	}
}

func TestProxyStateSurvivesJSONPersistence(t *testing.T) {
	key := []byte("k")
	store := &memStore{}
	server := NewServer(7, store)
	proxy := NewProxy(key, server)
	client := NewSecureClient(key, 44)
	frame := client.Seal(PDU{Type: WriteProperty, Device: 7, Object: ObjSetpoint, Value: 25})
	if _, err := proxy.HandleFrame(frame); err != nil {
		t.Fatal(err)
	}

	// Persist the floor the way a real bump-in-the-wire box would (flash,
	// config partition), then seed a brand-new proxy from the decoded copy.
	blob, err := json.Marshal(proxy.State())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewProxyState()
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	rebooted := NewProxyResuming(key, server, restored)
	if _, err := rebooted.HandleFrame(frame); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay after persisted restart err = %v, want ErrReplay", err)
	}
}

func TestPDUQuickRoundTripThroughFraming(t *testing.T) {
	// Property: any well-formed PDU survives encode → frame → deframe →
	// decode, even when the byte stream arrives one byte at a time — the
	// path every bus frame takes through a gateway connection.
	f := func(typ uint8, invoke uint8, device uint32, object uint16, value float64, code uint8) bool {
		p := PDU{
			Type:     PDUType(typ%4 + 1),
			InvokeID: invoke,
			Device:   device,
			Object:   ObjectID(object),
			Value:    value,
			Code:     code,
		}
		var d Deframer
		for _, b := range Frame(p.Encode()) {
			d.Feed([]byte{b})
		}
		raw := d.Next()
		if raw == nil {
			return false
		}
		got, err := DecodePDU(raw)
		if err != nil {
			return false
		}
		return got == p && d.Next() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
