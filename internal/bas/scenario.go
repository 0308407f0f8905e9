package bas

import (
	"errors"
	"strconv"
	"time"

	"mkbas/internal/httpmini"
	"mkbas/internal/machine"
	"mkbas/internal/plant"
	"mkbas/internal/vnet"
)

// errNoResponse reports that the web interface never answered; the attack
// experiments use it to detect an incapacitated web process.
var errNoResponse = errors.New("bas: no HTTP response from web interface")

// WebPort is the scenario web interface's TCP port (the paper's 8080).
const WebPort vnet.Port = 8080

// Process image names, shared across platforms so experiments can address
// processes uniformly.
const (
	NameTempControl  = "tempProc"
	NameTempSensor   = "tempSensProc"
	NameHeaterAct    = "heaterActProc"
	NameAlarmAct     = "alarmProc"
	NameWebInterface = "webInterface"
	NameScenario     = "scenario"
	NameSupervisor   = "supervisord"
)

// ScenarioConfig bundles everything the testbed needs.
type ScenarioConfig struct {
	// Controller is the control-law configuration.
	Controller ControllerConfig
	// SamplePeriod is the sensor driver's polling interval.
	SamplePeriod time.Duration
	// Plant parameterises the simulated room.
	Plant plant.Config
	// Seed drives board-level determinism (sensor noise).
	Seed int64
}

// DefaultScenario mirrors the testbed: a cool room (18 °C) that the
// controller must heat to a 22 °C setpoint, sampling once a second.
func DefaultScenario() ScenarioConfig {
	return ScenarioConfig{
		Controller:   DefaultControllerConfig(),
		SamplePeriod: time.Second,
		Plant:        plant.DefaultConfig(),
		Seed:         1,
	}
}

// Testbed is the assembled physical side of an experiment: board, room,
// network. Platform deployments run on top of one testbed.
type Testbed struct {
	Machine *machine.Machine
	Room    *plant.Room
	Net     *vnet.Stack
	// http is the harness client's buffer: each request is built in it and
	// its response read into it.
	http []byte
}

// NewTestbed assembles a board with the room devices attached and a network
// stack.
func NewTestbed(cfg ScenarioConfig) *Testbed {
	m := machine.New(machine.Config{Seed: cfg.Seed})
	roomCfg := cfg.Plant
	if roomCfg.SensorNoise > 0 && roomCfg.Rand == nil {
		roomCfg.Rand = m.Rand()
	}
	room := plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), roomCfg))
	return &Testbed{
		Machine: m,
		Room:    room,
		Net:     vnet.NewStack(),
	}
}

// HTTPGet issues one HTTP request from the host side against the deployed
// web interface and runs the board until the response arrives (or timeout of
// virtual time elapses). It is the experiment harness's "administrator's
// browser". The body is valid until the testbed's next HTTP request.
func (tb *Testbed) HTTPGet(path string) (int, []byte, error) {
	req := append(tb.http[:0], "GET "...)
	req = append(req, path...)
	return tb.httpRoundTrip(append(req, " HTTP/1.0\r\n\r\n"...))
}

// HTTPPostSetpoint posts a new setpoint value, as it would appear in the
// form (still encoded). The body is valid until the testbed's next HTTP
// request.
func (tb *Testbed) HTTPPostSetpoint(value string) (int, []byte, error) {
	req := append(tb.http[:0], "POST /setpoint HTTP/1.0\r\n"+
		"Content-Type: application/x-www-form-urlencoded\r\n"+
		"Content-Length: "...)
	req = strconv.AppendInt(req, int64(len("value=")+len(value)), 10)
	req = append(req, "\r\n\r\nvalue="...)
	return tb.httpRoundTrip(append(req, value...))
}

// httpRoundTrip sends req, built in tb.http, and reads the response into
// the same buffer.
func (tb *Testbed) httpRoundTrip(req []byte) (int, []byte, error) {
	conn, err := tb.Net.Dial(WebPort)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	if err := conn.Write(req); err != nil {
		return 0, nil, err
	}
	tb.http = req[:0] // the stream copied the request
	// Drive the board until the web process answers. On Linux the
	// controller only polls its web-request queue after each sensor sample,
	// so a reply can lag by a full sample period; allow several seconds of
	// virtual time.
	for i := 0; i < 80; i++ {
		tb.Machine.Run(50 * time.Millisecond)
		tb.http = append(tb.http, conn.ReadAll()...)
		if status, body, err := httpmini.ParseResponse(tb.http); err == nil {
			return status, body, nil
		}
	}
	return 0, tb.http, errNoResponse
}
