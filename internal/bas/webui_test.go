package bas

import (
	"errors"
	"testing"

	"mkbas/internal/vnet"
)

// pipePort is a processPort with one connection: reads hand out a fixed
// request stream in one piece, then EOF, and writes collect the reply.
type pipePort struct {
	processPort
	in, out []byte
}

func (p *pipePort) NetRead(int32, int) ([]byte, error) {
	if len(p.in) == 0 {
		return nil, vnet.ErrConnClosed
	}
	data := p.in
	p.in = nil
	return data, nil
}

func (p *pipePort) NetWrite(_ int32, data []byte) error {
	p.out = append(p.out, data...)
	return nil
}

func (p *pipePort) NetClose(int32) error { return nil }

// rangeClient is a controller at a fixed status that accepts setpoints in
// the default band and refuses the rest the way the controller does.
type rangeClient struct{ dead bool }

func (c rangeClient) Status() (Status, error) {
	if c.dead {
		return Status{}, errors.New("controller dead")
	}
	return Status{Temp: 21.37, Setpoint: 22, HeaterOn: true, Samples: 42}, nil
}

func (c rangeClient) SetSetpoint(v float64) error {
	return NewController(DefaultControllerConfig()).SetSetpoint(v)
}

// promText is a fixed metrics source.
type promText string

func (p promText) PromText() string { return string(p) }

// serveStream runs the web interface over one connection carrying stream
// and returns every byte it wrote back.
func serveStream(stream string, ctrl ControlClient, metrics MetricsSource) string {
	port := &pipePort{in: []byte(stream)}
	(&webServer{ctrl: ctrl, metrics: metrics}).serveConn(netConn{net: port, fd: 1})
	return string(port.out)
}

func TestWebResponseBytes(t *testing.T) {
	const form = "POST /setpoint HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: "
	const (
		ok       = "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: "
		bad      = "HTTP/1.0 400 Bad Request\r\nContent-Type: text/plain\r\nContent-Length: "
		notFound = "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 10\r\n\r\nnot found\n"
		status   = ok + "57\r\n\r\ntemp=21.37 setpoint=22.00 heater=on alarm=off samples=42\n"
		echo     = ok + "15\r\n\r\nsetpoint=23.50\n"
		garbled  = bad + "18\r\n\r\nmalformed request\n"
	)
	cases := []struct {
		name    string
		dead    bool
		metrics MetricsSource
		req     string
		want    string
	}{
		{"usage", false, nil, "GET / HTTP/1.0\r\n\r\n", ok + "140\r\n\r\nBAS temperature controller\nGET /status — current state\n" +
			"GET /metrics — Prometheus metrics\nPOST /setpoint value=<°C> — change setpoint\n"},
		{"status", false, nil, "GET /status HTTP/1.0\r\n\r\n", status},
		{"status dead controller", true, nil, "GET /status HTTP/1.0\r\n\r\n",
			"HTTP/1.0 500 Internal Server Error\r\nContent-Type: text/plain\r\nContent-Length: 40\r\n\r\ncontroller unavailable: controller dead\n"},
		{"metrics", false, promText("demo_total 9\n"), "GET /metrics HTTP/1.0\r\n\r\n", ok + "13\r\n\r\ndemo_total 9\n"},
		{"metrics without source", false, nil, "GET /metrics HTTP/1.0\r\n\r\n", notFound},
		{"setpoint", false, nil, form + "10\r\n\r\nvalue=23.5", echo},
		{"setpoint in query", false, nil, "POST /setpoint?value=%32%31 HTTP/1.0\r\n\r\n", ok + "15\r\n\r\nsetpoint=21.00\n"},
		{"setpoint unparsable", false, nil, form + "9\r\n\r\nvalue=bad", bad + "19\r\n\r\nbad setpoint \"bad\"\n"},
		{"setpoint refused", false, nil, form + "8\r\n\r\nvalue=99",
			bad + "77\r\n\r\nrejected: bas: setpoint outside permitted range: 99.00 not in [15.00, 30.00]\n"},
		{"not found", false, nil, "GET /nowhere HTTP/1.0\r\n\r\n", notFound},
		{"get on setpoint", false, nil, "GET /setpoint?value=99 HTTP/1.0\r\n\r\n", notFound},
		{"method not allowed", false, nil, "POST /status HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
			"HTTP/1.0 405 Method Not Allowed\r\nContent-Type: text/plain\r\nContent-Length: 19\r\n\r\nmethod not allowed\n"},
		{"malformed", false, nil, "GARBAGE\r\n\r\n", garbled},
		{"pipelined then malformed", false, nil, "GET /status HTTP/1.0\r\n\r\n" + form + "10\r\n\r\nvalue=23.5GET / SPDY/9\r\n\r\n",
			status + echo + garbled},
	}
	for _, tc := range cases {
		if got := serveStream(tc.req, rangeClient{dead: tc.dead}, tc.metrics); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestWebServerDropsPartialRequestBetweenConnections(t *testing.T) {
	// One parser serves every connection in turn: bytes a client left
	// unterminated must not prefix the next client's request.
	w := &webServer{ctrl: rangeClient{}}
	first := &pipePort{in: []byte("POST /setpoint HTTP/1.0\r\nContent-Length: 9\r\n\r\nvalue")}
	w.serveConn(netConn{net: first, fd: 1})
	second := &pipePort{in: []byte("GET /nowhere HTTP/1.0\r\n\r\n")}
	w.serveConn(netConn{net: second, fd: 2})
	if len(first.out) != 0 || string(second.out) != serveStream("GET /nowhere HTTP/1.0\r\n\r\n", rangeClient{}, nil) {
		t.Fatalf("first connection got %q, second %q", first.out, second.out)
	}
}
