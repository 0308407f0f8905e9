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
// three platforms, appending the response to dst:
//
//	GET  /           — usage text
//	GET  /status     — controller status line
//	GET  /metrics    — Prometheus text exposition (if a source is wired)
//	POST /setpoint   — value=<float> form field sets a new setpoint
func HandleRequest(dst []byte, req *httpmini.Request, ctrl ControlClient, metrics MetricsSource) []byte {
	get := req.Method == "GET"
	switch path := string(req.Path); {
	case get && path == "/":
		return httpmini.AppendText(dst, 200,
			"BAS temperature controller\n"+
				"GET /status — current state\n"+
				"GET /metrics — Prometheus metrics\n"+
				"POST /setpoint value=<°C> — change setpoint\n")
	case get && path == "/metrics":
		if metrics == nil {
			return httpmini.AppendText(dst, 404, "not found\n")
		}
		return httpmini.AppendText(dst, 200, metrics.PromText())
	case get && path == "/status":
		st, err := ctrl.Status()
		if err != nil {
			return httpmini.AppendText(dst, 500, fmt.Sprintf("controller unavailable: %v\n", err))
		}
		var line [64]byte
		return httpmini.AppendText(dst, 200, string(append(st.AppendText(line[:0]), '\n')))
	case req.Method == "POST" && path == "/setpoint":
		raw := req.FormValue("value")
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return httpmini.AppendText(dst, 400, fmt.Sprintf("bad setpoint %q\n", raw))
		}
		if err := ctrl.SetSetpoint(v); err != nil {
			return httpmini.AppendText(dst, 400, fmt.Sprintf("rejected: %v\n", err))
		}
		var buf [32]byte
		echo := append(decfmt.AppendFixed(append(buf[:0], "setpoint="...), v, 2), '\n')
		return httpmini.AppendText(dst, 200, string(echo))
	case get:
		return httpmini.AppendText(dst, 404, "not found\n")
	default:
		return httpmini.AppendText(dst, 405, "method not allowed\n")
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

// webServer is the web interface process. It serves one connection at a
// time, so one parser and one reply buffer serve them all.
type webServer struct {
	ctrl    ControlClient
	metrics MetricsSource
	parser  httpmini.Parser
	reply   []byte
}

// serveConn is the web interface's handling of one connection: parse one or
// more HTTP requests off it and answer each, until EOF or a protocol error.
func (w *webServer) serveConn(conn netConn) {
	defer conn.Close()
	w.parser.Reset()
	for {
		req, err := w.parser.Next()
		if err != nil {
			w.reply = httpmini.AppendText(w.reply[:0], 400, "malformed request\n")
			conn.Write(w.reply)
			return
		}
		if req != nil {
			w.reply = HandleRequest(w.reply[:0], req, w.ctrl, w.metrics)
			if err := conn.Write(w.reply); err != nil {
				return
			}
			continue
		}
		data, err := conn.Read(0)
		if err != nil {
			return // EOF or reset
		}
		w.parser.Feed(data)
	}
}
