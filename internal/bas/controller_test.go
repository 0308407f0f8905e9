package bas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mkbas/internal/core"
	"mkbas/internal/httpmini"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
)

func at(d time.Duration) machine.Time { return machine.Time(d) }

func TestControllerBangBang(t *testing.T) {
	c := NewController(DefaultControllerConfig()) // setpoint 22, hysteresis 0.25
	cases := []struct {
		temp       float64
		wantHeater bool
	}{
		{18, true},   // cold: heater on
		{21.9, true}, // inside dead band: hold previous (on)
		{22.3, false},
		{22.1, false}, // inside dead band: hold previous (off)
		{21.5, true},
	}
	for i, tc := range cases {
		c.OnSample(at(time.Duration(i)*time.Second), tc.temp)
		if c.HeaterOn() != tc.wantHeater {
			t.Fatalf("step %d temp=%.1f heater=%v, want %v", i, tc.temp, c.HeaterOn(), tc.wantHeater)
		}
	}
}

func TestControllerAlarmAfterDelay(t *testing.T) {
	cfg := DefaultControllerConfig()
	c := NewController(cfg) // tolerance 2.0, delay 5m
	// In range: no alarm.
	c.OnSample(at(0), 21)
	if c.AlarmOn() {
		t.Fatal("alarm on while in range")
	}
	// Out of range but not yet past the delay.
	c.OnSample(at(time.Minute), 17)
	c.OnSample(at(4*time.Minute), 17)
	if c.AlarmOn() {
		t.Fatal("alarm tripped before the 5-minute delay")
	}
	// Past the delay.
	c.OnSample(at(6*time.Minute+time.Second), 17)
	if !c.AlarmOn() {
		t.Fatal("alarm did not trip after delay")
	}
	// Recovery clears the alarm.
	c.OnSample(at(7*time.Minute), 21.5)
	if c.AlarmOn() {
		t.Fatal("alarm did not clear on recovery")
	}
}

func TestControllerAlarmTimerResetsOnRecovery(t *testing.T) {
	c := NewController(DefaultControllerConfig())
	c.OnSample(at(0), 17)             // out
	c.OnSample(at(3*time.Minute), 21) // back in: timer resets
	c.OnSample(at(4*time.Minute), 17) // out again
	c.OnSample(at(8*time.Minute), 17) // only 4 minutes out
	if c.AlarmOn() {
		t.Fatal("alarm used stale out-of-range timestamp")
	}
	c.OnSample(at(9*time.Minute+time.Second), 17)
	if !c.AlarmOn() {
		t.Fatal("alarm missing after full delay")
	}
}

func TestSetpointClamping(t *testing.T) {
	c := NewController(DefaultControllerConfig()) // range 15..30
	if err := c.SetSetpoint(25); err != nil {
		t.Fatalf("valid setpoint rejected: %v", err)
	}
	if c.Setpoint() != 25 {
		t.Fatalf("setpoint = %v, want 25", c.Setpoint())
	}
	for _, bad := range []float64{14.9, 30.1, 99, -5, 1e300, math.Copysign(0, -1), math.NaN(), math.Inf(1)} {
		err := c.SetSetpoint(bad)
		if !errors.Is(err, ErrSetpointRange) {
			t.Fatalf("setpoint %v accepted, want range error", bad)
		}
		// The rejection text web replies carry: each number as %.2f.
		if want := fmt.Sprintf("%v: %.2f not in [15.00, 30.00]", ErrSetpointRange, bad); err.Error() != want {
			t.Fatalf("rejection text %q, want %q", err, want)
		}
	}
	if c.Setpoint() != 25 {
		t.Fatal("rejected setpoint modified state")
	}
}

func TestControllerProperty_HeaterNeverOnAboveBand(t *testing.T) {
	cfg := DefaultControllerConfig()
	f := func(temps []float64, step uint8) bool {
		c := NewController(cfg)
		now := machine.Time(0)
		for _, raw := range temps {
			temp := 10 + mod(raw, 25) // keep in a physical range
			now = now.Add(time.Duration(step%60+1) * time.Second)
			c.OnSample(now, temp)
			if temp > cfg.Setpoint+cfg.Hysteresis && c.HeaterOn() {
				return false
			}
			if temp < cfg.Setpoint-cfg.Hysteresis && !c.HeaterOn() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mod(v float64, m float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	x := math.Mod(v, m)
	if x < 0 {
		x += m
	}
	return x
}

func TestStatusString(t *testing.T) {
	st := Status{Temp: 21.5, Setpoint: 22, HeaterOn: true, AlarmOn: false, Samples: 9}
	s := st.String()
	for _, want := range []string{"temp=21.50", "setpoint=22.00", "heater=on", "alarm=off", "samples=9"} {
		if !strings.Contains(s, want) {
			t.Errorf("status %q missing %q", s, want)
		}
	}
}

func TestParseStatusLineRoundTrip(t *testing.T) {
	st := Status{Temp: 19.25, Setpoint: 23.5, HeaterOn: true, AlarmOn: true, Samples: 77}
	got, err := parseStatusLine(st.AppendText(nil))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.Setpoint != 23.5 || !got.HeaterOn || !got.AlarmOn || got.Samples != 77 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Temp != 19.25 {
		t.Fatalf("temp = %v", got.Temp)
	}
	if _, err := parseStatusLine([]byte("garbage")); err == nil {
		t.Fatal("garbage parsed")
	}
}

// TestStatusCodecMatchesWireLayouts pins the binary status codec to the MINIX
// payload layout in the minixapp.go header — temp f64@0, setpoint f64@8,
// flags u32@16 with bytes 20–23 zero, samples i64@24 — and round-trips it
// through both microkernels' wire forms, so it cannot drift from either.
func TestStatusCodecMatchesWireLayouts(t *testing.T) {
	for _, st := range []Status{
		{Temp: 21.37, Setpoint: 22.5, HeaterOn: true, AlarmOn: true, Samples: 1<<40 + 7},
		{Temp: -3.25, Setpoint: 15, HeaterOn: true, Samples: 60},
		{Temp: 30.5, Setpoint: 30, AlarmOn: true, Samples: math.MaxInt64},
	} {
		ack := encodeStatusAck(st)
		p := ack.Payload[:]
		var flags uint32
		if st.HeaterOn {
			flags |= 1
		}
		if st.AlarmOn {
			flags |= 2
		}
		if ack.Type != int32(core.MsgAck) ||
			math.Float64frombits(binary.LittleEndian.Uint64(p[0:])) != st.Temp ||
			math.Float64frombits(binary.LittleEndian.Uint64(p[8:])) != st.Setpoint ||
			binary.LittleEndian.Uint32(p[16:]) != flags ||
			int64(binary.LittleEndian.Uint64(p[24:])) != st.Samples {
			t.Fatalf("%+v: ack type %d payload % x breaks the documented layout", st, ack.Type, p)
		}
		if !bytes.Equal(p[20:24], make([]byte, 4)) || !bytes.Equal(p[32:], make([]byte, len(p)-32)) {
			t.Fatalf("%+v: payload % x has bytes outside the layout set", st, p)
		}
		if got := decodeStatusAck(ack); got != st {
			t.Fatalf("MINIX round trip: %+v, want %+v", got, st)
		}
		words := st.words()
		for i, w := range words {
			if got := binary.LittleEndian.Uint64(p[8*i:]); got != w {
				t.Fatalf("%+v: seL4 word %d = %#x, MINIX payload holds %#x", st, i, w, got)
			}
		}
		if got := statusFromWords(words); got != st {
			t.Fatalf("seL4 round trip: %+v, want %+v", got, st)
		}
	}
}

func TestCutFieldMatchesStringsFields(t *testing.T) {
	// cutField must split exactly as strings.Fields does, on any input: the
	// ASCII spaces, the Latin-1 and wider Unicode spaces, invalid UTF-8 and
	// empty or space-only lines.
	alphabet := []string{" ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003", "\u3000",
		"\xc2", "\xa0", "\xff", "=", "temp", "setpoint", "heater", "on", "1", ".", "é", "x"}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		var b strings.Builder
		for k := rng.Intn(12); k > 0; k-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		line := b.String()
		var got []string
		for f, rest := cutField([]byte(line)); len(f) > 0; f, rest = cutField(rest) {
			got = append(got, string(f))
		}
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Fatalf("cutField(%q) fields = %q, strings.Fields = %q", line, got, want)
		}
	}
}

func TestParseStatusLineAllocatesNothing(t *testing.T) {
	line := Status{Temp: 21.37, Setpoint: 22, HeaterOn: true, Samples: 719997}.AppendText(nil)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := parseStatusLine(line); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("parseStatusLine allocates %.1f/op, want 0", n)
	}
}

// fakeClient implements ControlClient for webui routing tests.
type fakeClient struct {
	st        Status
	stErr     error
	setCalled []float64
	setErr    error
}

func (f *fakeClient) Status() (Status, error) { return f.st, f.stErr }
func (f *fakeClient) SetSetpoint(v float64) error {
	f.setCalled = append(f.setCalled, v)
	return f.setErr
}

func parseReq(t *testing.T, raw string) *httpmini.Request {
	t.Helper()
	var p httpmini.Parser
	p.Feed([]byte(raw))
	req, err := p.Next()
	if err != nil || req == nil {
		t.Fatalf("bad test request %q: %v", raw, err)
	}
	return req
}

func TestHandleRequestMetricsRoute(t *testing.T) {
	client := &fakeClient{st: Status{Temp: 20, Setpoint: 22}}
	reg := obs.NewRegistry()
	reg.Counter("demo_total").Add(9)

	resp := HandleRequest(parseReq(t, "GET /metrics HTTP/1.0\r\n\r\n"), client, reg)
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "demo_total 9") {
		t.Fatalf("metrics route = %d %q", resp.Status, resp.Body)
	}
	// Without a wired source (the microkernel deployments), the route 404s.
	resp = HandleRequest(parseReq(t, "GET /metrics HTTP/1.0\r\n\r\n"), client, nil)
	if resp.Status != 404 {
		t.Fatalf("metrics without source = %d, want 404", resp.Status)
	}
}

func TestHandleRequestRouting(t *testing.T) {
	client := &fakeClient{st: Status{Temp: 20, Setpoint: 22}}

	resp := HandleRequest(parseReq(t, "GET /status HTTP/1.0\r\n\r\n"), client, nil)
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "setpoint=22.00") {
		t.Fatalf("status resp = %d %q", resp.Status, resp.Body)
	}

	resp = HandleRequest(parseReq(t, "POST /setpoint HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 10\r\n\r\nvalue=23.5"), client, nil)
	if resp.Status != 200 || len(client.setCalled) != 1 || client.setCalled[0] != 23.5 {
		t.Fatalf("setpoint resp = %d, calls %v", resp.Status, client.setCalled)
	}

	resp = HandleRequest(parseReq(t, "POST /setpoint HTTP/1.0\r\nContent-Length: 9\r\n\r\nvalue=bad"), client, nil)
	if resp.Status != 400 {
		t.Fatalf("bad value status = %d, want 400", resp.Status)
	}

	client.setErr = ErrSetpointRange
	resp = HandleRequest(parseReq(t, "GET /setpoint?value=99 HTTP/1.0\r\n\r\n"), client, nil)
	if resp.Status != 404 {
		t.Fatalf("GET on setpoint = %d, want 404", resp.Status)
	}
	resp = HandleRequest(parseReq(t, "POST /setpoint HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 8\r\n\r\nvalue=99"), client, nil)
	if resp.Status != 400 || !strings.Contains(string(resp.Body), "rejected") {
		t.Fatalf("rejected resp = %d %q", resp.Status, resp.Body)
	}

	client.stErr = errors.New("controller dead")
	resp = HandleRequest(parseReq(t, "GET /status HTTP/1.0\r\n\r\n"), client, nil)
	if resp.Status != 500 {
		t.Fatalf("dead controller status = %d, want 500", resp.Status)
	}

	resp = HandleRequest(parseReq(t, "GET / HTTP/1.0\r\n\r\n"), client, nil)
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "GET /status") {
		t.Fatalf("usage resp = %d %q", resp.Status, resp.Body)
	}
}
