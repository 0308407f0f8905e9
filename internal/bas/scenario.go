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
// browser".
func (tb *Testbed) HTTPGet(path string) (int, string, error) {
	return tb.httpRoundTrip("GET " + path + " HTTP/1.0\r\n\r\n")
}

// HTTPPostSetpoint posts a new setpoint value.
func (tb *Testbed) HTTPPostSetpoint(value string) (int, string, error) {
	body := "value=" + value
	req := "POST /setpoint HTTP/1.0\r\n" +
		"Content-Type: application/x-www-form-urlencoded\r\n" +
		"Content-Length: " + itoa(len(body)) + "\r\n\r\n" + body
	return tb.httpRoundTrip(req)
}

func (tb *Testbed) httpRoundTrip(raw string) (int, string, error) {
	conn, err := tb.Net.Dial(WebPort)
	if err != nil {
		return 0, "", err
	}
	if err := conn.Write([]byte(raw)); err != nil {
		return 0, "", err
	}
	// Drive the board until the web process answers. On Linux the
	// controller only polls its web-request queue after each sensor sample,
	// so a reply can lag by a full sample period; allow several seconds of
	// virtual time.
	var buf []byte
	for i := 0; i < 80; i++ {
		tb.Machine.Run(50 * time.Millisecond)
		buf = append(buf, conn.ReadAll()...)
		if status, body, err := parseResponse(buf); err == nil {
			conn.Close()
			return status, body, nil
		}
	}
	conn.Close()
	return 0, string(buf), errNoResponse
}

func itoa(n int) string { return strconv.Itoa(n) }

// parseResponse wraps httpmini.ParseResponse with a string body.
func parseResponse(buf []byte) (int, string, error) {
	status, body, err := httpmini.ParseResponse(buf)
	return status, string(body), err
}
