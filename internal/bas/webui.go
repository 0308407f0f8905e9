package bas

import (
	"fmt"
	"strconv"

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
		return httpmini.Text(200, fmt.Sprintf("setpoint=%.2f\n", v))
	case req.Method == "GET":
		return httpmini.Text(404, "not found\n")
	default:
		return httpmini.Text(405, "method not allowed\n")
	}
}

// NetConn abstracts one accepted connection for the shared server loop.
type NetConn interface {
	Read(max int) ([]byte, error)
	Write(data []byte) error
	Close() error
}

// NetListener abstracts the platform listener.
type NetListener interface {
	Accept() (NetConn, error)
}

// netSyscalls is the socket trap surface every platform's process API
// shares (*minix.API, *camkes.Runtime, *linuxsim.API); one listener/conn
// pair over it adapts any of them to NetListener.
type netSyscalls interface {
	NetAccept(listener int32) (int32, error)
	NetRead(conn int32, max int) ([]byte, error)
	NetWrite(conn int32, data []byte) error
	NetClose(conn int32) error
}

type netListener struct {
	net netSyscalls
	l   int32
}

func (nl netListener) Accept() (NetConn, error) {
	conn, err := nl.net.NetAccept(nl.l)
	if err != nil {
		return nil, err
	}
	return netConn{net: nl.net, fd: conn}, nil
}

type netConn struct {
	net netSyscalls
	fd  int32
}

func (nc netConn) Read(max int) ([]byte, error) { return nc.net.NetRead(nc.fd, max) }
func (nc netConn) Write(data []byte) error      { return nc.net.NetWrite(nc.fd, data) }
func (nc netConn) Close() error                 { return nc.net.NetClose(nc.fd) }

// ServeWeb is the web interface's main loop, shared by all platforms: accept
// a connection, parse one or more HTTP requests off it, answer each, close.
// It returns when Accept fails (listener torn down).
func ServeWeb(l NetListener, ctrl ControlClient, metrics MetricsSource) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		serveConn(conn, ctrl, metrics)
	}
}

// serveConn handles one connection until EOF or a protocol error.
func serveConn(conn NetConn, ctrl ControlClient, metrics MetricsSource) {
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
