package bas

import (
	"fmt"
	"strconv"

	"mkbas/internal/decfmt"
	"mkbas/internal/httpmini"
)

// ControlClient is the web interface's view of the controller, implemented
// per platform over the respective IPC mechanism.
type ControlClient interface {
	// Status queries the controller's current state.
	Status() (Status, error)
	// SetSetpoint proposes a new desired temperature.
	SetSetpoint(v float64) error
}

// MetricsSource supplies the Prometheus text exposition served at
// GET /metrics. *obs.Registry implements it; a nil source disables the
// route (the microkernel deployments keep kernel state off the web
// surface, so only the Linux deployment wires one up).
type MetricsSource interface {
	PromText() string
}

// HandleRequest implements the web interface's HTTP routing, shared by all
// three platforms:
//
//	GET  /           — usage text
//	GET  /status     — controller status line
//	GET  /metrics    — Prometheus text exposition (if a source is wired)
//	POST /setpoint   — value=<float> form field sets a new setpoint
func HandleRequest(req *httpmini.Request, ctrl ControlClient, metrics MetricsSource) *httpmini.Response {
	switch {
	case req.Method == "GET" && req.Path == "/":
		return httpmini.Text(200,
			"BAS temperature controller\n"+
				"GET /status — current state\n"+
				"GET /metrics — Prometheus metrics\n"+
				"POST /setpoint value=<°C> — change setpoint\n")
	case req.Method == "GET" && req.Path == "/metrics":
		if metrics == nil {
			return httpmini.Text(404, "not found\n")
		}
		return httpmini.Text(200, metrics.PromText())
	case req.Method == "GET" && req.Path == "/status":
		st, err := ctrl.Status()
		if err != nil {
			return httpmini.Text(500, fmt.Sprintf("controller unavailable: %v\n", err))
		}
		return httpmini.Text(200, st.String()+"\n")
	case req.Method == "POST" && req.Path == "/setpoint":
		raw := req.FormValue("value")
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return httpmini.Text(400, fmt.Sprintf("bad setpoint %q\n", raw))
		}
		if err := ctrl.SetSetpoint(v); err != nil {
			return httpmini.Text(400, fmt.Sprintf("rejected: %v\n", err))
		}
		echo := decfmt.AppendFixed([]byte("setpoint="), v, 2)
		return httpmini.Text(200, string(append(echo, '\n')))
	case req.Method == "GET":
		return httpmini.Text(404, "not found\n")
	default:
		return httpmini.Text(405, "method not allowed\n")
	}
}

// netConn is one accepted connection, over any kernel's socket traps.
type netConn struct {
	net processPort
	fd  int32
}

func (nc netConn) Read(max int) ([]byte, error) { return nc.net.NetRead(nc.fd, max) }
func (nc netConn) Write(data []byte) error      { return nc.net.NetWrite(nc.fd, data) }
func (nc netConn) Close() error                 { return nc.net.NetClose(nc.fd) }

// serveConn is the web interface's handling of one connection: parse one or
// more HTTP requests off it and answer each, until EOF or a protocol error.
func serveConn(conn netConn, ctrl ControlClient, metrics MetricsSource) {
	defer conn.Close()
	var parser httpmini.Parser
	for {
		req, err := parser.Next()
		if err != nil {
			conn.Write(httpmini.Text(400, "malformed request\n").Render())
			return
		}
		if req != nil {
			resp := HandleRequest(req, ctrl, metrics)
			if err := conn.Write(resp.Render()); err != nil {
				return
			}
			continue
		}
		data, err := conn.Read(0)
		if err != nil {
			return // EOF or reset
		}
		parser.Feed(data)
	}
}
