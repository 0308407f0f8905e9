package mkbas

// One benchmark per experiment in DESIGN.md's index. Where the paper's
// artifact is qualitative (the attack matrix), the benchmark regenerates the
// run and reports the decisive counters as metrics; where the paper makes a
// quantitative claim (microkernel IPC pays more context switches), the
// benchmark measures it.

import (
	"testing"
	"time"

	"mkbas/internal/aadl"
	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/core"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"

	"os"
	"path/filepath"
)

// --- E1: Section IV-D attack outcomes ---------------------------------------

func benchAttack(b *testing.B, spec attack.Spec, wantCompromise bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		report, err := attack.Execute(spec)
		if err != nil {
			b.Fatal(err)
		}
		if report.PhysicalCompromise != wantCompromise {
			b.Fatalf("%s on %s: compromise=%v, want %v",
				spec.Action, spec.Platform, report.PhysicalCompromise, wantCompromise)
		}
		b.ReportMetric(float64(report.Denials), "denials/op")
		b.ReportMetric(float64(report.Successes), "accepted/op")
	}
}

func BenchmarkE1_SpoofSensor_Linux(b *testing.B) {
	benchAttack(b, attack.Spec{Platform: bas.PlatformLinux, Action: attack.ActionSpoofSensor}, true)
}

func BenchmarkE1_SpoofSensor_Minix(b *testing.B) {
	benchAttack(b, attack.Spec{Platform: bas.PlatformMinix, Action: attack.ActionSpoofSensor}, false)
}

func BenchmarkE1_SpoofSensor_Sel4(b *testing.B) {
	benchAttack(b, attack.Spec{Platform: bas.PlatformSel4, Action: attack.ActionSpoofSensor}, false)
}

func BenchmarkE1_KillController_Linux_Root(b *testing.B) {
	benchAttack(b, attack.Spec{Platform: bas.PlatformLinux, Action: attack.ActionKillController, Root: true}, true)
}

func BenchmarkE1_KillController_Minix_Root(b *testing.B) {
	benchAttack(b, attack.Spec{Platform: bas.PlatformMinix, Action: attack.ActionKillController, Root: true}, false)
}

func BenchmarkE1_KillController_Sel4(b *testing.B) {
	benchAttack(b, attack.Spec{Platform: bas.PlatformSel4, Action: attack.ActionKillController}, false)
}

// --- E2: Fig. 3 ACM lookup ----------------------------------------------------

func BenchmarkE2_ACMLookup(b *testing.B) {
	m := core.Fig3Matrix()
	b.ReportAllocs()
	b.ResetTimer()
	allowed := 0
	for i := 0; i < b.N; i++ {
		// The narrated check: App2 sends m_type 2 to App1 (allowed), then
		// m_type 1 (denied).
		if m.Allows(core.Fig3App2, core.Fig3App1, 2) {
			allowed++
		}
		if m.Allows(core.Fig3App2, core.Fig3App1, 1) {
			allowed--
		}
	}
	if allowed != b.N {
		b.Fatalf("Fig. 3 semantics broken: %d", allowed)
	}
}

// --- E3: Fig. 2 closed-loop control ------------------------------------------

func benchClosedLoop(b *testing.B, deploy func(tb *bas.Testbed, cfg bas.ScenarioConfig) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := bas.DefaultScenario()
		tb := bas.NewTestbed(cfg)
		if err := deploy(tb, cfg); err != nil {
			b.Fatal(err)
		}
		tb.Machine.Run(40 * time.Minute)
		temp := tb.Room.Temperature()
		if temp < 21 || temp > 23 {
			b.Fatalf("loop did not converge: %.2f", temp)
		}
		stats := tb.Machine.Engine().Stats()
		b.ReportMetric(float64(stats.Traps), "vtraps/op")
		b.ReportMetric(float64(stats.ContextSwitches), "vctxsw/op")
		tb.Machine.Shutdown()
	}
}

func BenchmarkE3_ControlLoop_Minix(b *testing.B) {
	benchClosedLoop(b, func(tb *bas.Testbed, cfg bas.ScenarioConfig) error {
		_, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{})
		return err
	})
}

func BenchmarkE3_ControlLoop_Sel4(b *testing.B) {
	benchClosedLoop(b, func(tb *bas.Testbed, cfg bas.ScenarioConfig) error {
		_, err := bas.Deploy(bas.PlatformSel4, tb, cfg, bas.DeployOptions{})
		return err
	})
}

func BenchmarkE3_ControlLoop_Linux(b *testing.B) {
	benchClosedLoop(b, func(tb *bas.Testbed, cfg bas.ScenarioConfig) error {
		_, err := bas.Deploy(bas.PlatformLinux, tb, cfg, bas.DeployOptions{})
		return err
	})
}

// --- E4: IPC round-trip cost (microkernel vs monolithic) ----------------------
//
// The paper: "the microkernel approach generally underperforms the
// monolithic due to the multiple context switches". Each benchmark drives
// request/response round trips between two processes and reports the
// simulated context switches and kernel entries per round trip.

// minixRoundTrips builds a MINIX echo pair; the returned counter advances
// once per completed round trip.
func minixRoundTrips(b testing.TB) (*machine.Machine, *int64) {
	b.Helper()
	m := machine.New(machine.Config{})
	policy := core.NewPolicy()
	policy.IPC.Allow(1, 2, 1).AllowBidirectionalAck(1, 2)
	policy.Seal()
	k, err := minix.Boot(m, policy, minix.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rounds := new(int64)
	k.RegisterImage(minix.Image{Name: "server", Priority: 7, Body: func(api *minix.API) {
		for {
			msg, err := api.Receive(minix.EndpointAny)
			if err != nil {
				return
			}
			_ = api.Send(msg.Source, minix.NewMessage(0))
		}
	}})
	k.RegisterImage(minix.Image{Name: "client", Priority: 7, Body: func(api *minix.API) {
		server, _ := api.Lookup("server")
		for {
			if _, err := api.SendRec(server, minix.NewMessage(1)); err != nil {
				return
			}
			*rounds++
		}
	}})
	if _, err := k.SpawnImage("server", 2); err != nil {
		b.Fatal(err)
	}
	if _, err := k.SpawnImage("client", 1); err != nil {
		b.Fatal(err)
	}
	return m, rounds
}

// sel4RoundTrips builds an seL4 Call/Reply pair.
func sel4RoundTrips(b testing.TB) (*machine.Machine, *int64) {
	b.Helper()
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	ep := k.CreateEndpoint("rpc")
	rounds := new(int64)
	server := k.CreateThread("server", 7, func(api *sel4.API) {
		for {
			if _, err := api.Recv(1); err != nil {
				return
			}
			if err := api.Reply(sel4.Msg{}); err != nil {
				return
			}
		}
	})
	client := k.CreateThread("client", 7, func(api *sel4.API) {
		for {
			if _, err := api.Call(1, sel4.Msg{Label: 1}); err != nil {
				return
			}
			*rounds++
		}
	})
	if err := k.InstallCap(server, 1, sel4.EndpointCap(ep, sel4.CapRead, 0)); err != nil {
		b.Fatal(err)
	}
	if err := k.InstallCap(client, 1, sel4.EndpointCap(ep, sel4.RightsRWG, 0)); err != nil {
		b.Fatal(err)
	}
	if err := k.Start(server); err != nil {
		b.Fatal(err)
	}
	if err := k.Start(client); err != nil {
		b.Fatal(err)
	}
	return m, rounds
}

// linuxRoundTrips builds a POSIX-mq request/response pair.
func linuxRoundTrips(b testing.TB) (*machine.Machine, *int64) {
	b.Helper()
	m := machine.New(machine.Config{})
	k := linuxsim.Boot(m, linuxsim.Config{})
	rounds := new(int64)
	k.RegisterImage(linuxsim.Image{Name: "server", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		req, err := api.MQOpen("/req", linuxsim.MQOpenFlags{Create: true, Read: true, Mode: 0o600})
		if err != nil {
			return
		}
		resp, err := api.MQOpen("/resp", linuxsim.MQOpenFlags{Create: true, Write: true, Mode: 0o600})
		if err != nil {
			return
		}
		pong := []byte("pong")
		for {
			if _, err := api.MQReceive(req); err != nil {
				return
			}
			if err := api.MQSend(resp, pong, 0); err != nil {
				return
			}
		}
	}})
	k.RegisterImage(linuxsim.Image{Name: "client", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		var req, resp int32
		for {
			var err error
			if req, err = api.MQOpen("/req", linuxsim.MQOpenFlags{Write: true}); err == nil {
				break
			}
			api.Sleep(time.Millisecond)
		}
		for {
			var err error
			if resp, err = api.MQOpen("/resp", linuxsim.MQOpenFlags{Read: true}); err == nil {
				break
			}
			api.Sleep(time.Millisecond)
		}
		ping := []byte("ping")
		for {
			if err := api.MQSend(req, ping, 0); err != nil {
				return
			}
			if _, err := api.MQReceive(resp); err != nil {
				return
			}
			*rounds++
		}
	}})
	if _, err := k.SpawnImage("server"); err != nil {
		b.Fatal(err)
	}
	if _, err := k.SpawnImage("client"); err != nil {
		b.Fatal(err)
	}
	return m, rounds
}

func benchRoundTrips(b *testing.B, build func(b testing.TB) (*machine.Machine, *int64)) {
	b.Helper()
	// allocs/op is part of the E4 contract: the monitored variants must
	// report the same figure as the bare ones (the monitor's in-graph path
	// allocates nothing).
	b.ReportAllocs()
	m, rounds := build(b)
	defer m.Shutdown()
	// Warm up: let the pair complete its first round.
	for *rounds == 0 {
		m.Run(time.Second)
	}
	base := m.Engine().Stats()
	start := *rounds
	b.ResetTimer()
	target := start + int64(b.N)
	for *rounds < target {
		// Small virtual slices keep the overshoot past b.N rounds tiny.
		m.Run(50 * time.Microsecond)
	}
	b.StopTimer()
	stats := m.Engine().Stats()
	done := *rounds - start
	b.ReportMetric(float64(stats.Traps-base.Traps)/float64(done), "vtraps/rt")
	b.ReportMetric(float64(stats.ContextSwitches-base.ContextSwitches)/float64(done), "vctxsw/rt")
}

func BenchmarkE4_IPCRoundTrip_MinixSendRec(b *testing.B) {
	benchRoundTrips(b, minixRoundTrips)
}

func BenchmarkE4_IPCRoundTrip_Sel4Call(b *testing.B) {
	benchRoundTrips(b, sel4RoundTrips)
}

func BenchmarkE4_IPCRoundTrip_LinuxMQ(b *testing.B) {
	benchRoundTrips(b, linuxRoundTrips)
}

// Monitored E4 variants: the same round-trip pairs with the online policy
// monitor attached over each pair's certified graph, exactly as a monitored
// deployment attaches it — every kernel-recorded delivery checked against
// the graph on the hot path. Comparing the _Monitored ns/op and allocs/op
// figures against the bare benchmarks above is the E12 overhead gate: the
// in-graph check must stay allocation-free and within a few percent.

// monitoredRoundTrips wraps an E4 builder with a monitor over graph g and
// fails the benchmark if any of the measured traffic drifted (a drifting
// bench would be timing the event-emission slow path, not the hot path).
func monitoredRoundTrips(build func(testing.TB) (*machine.Machine, *int64), g *polcheck.Graph) func(testing.TB) (*machine.Machine, *int64) {
	return func(b testing.TB) (*machine.Machine, *int64) {
		m, rounds := build(b)
		mon := monitor.New(g, monitor.Options{Events: m.Obs().Events()})
		mon.Attach(m.IPC())
		b.Cleanup(func() {
			st := mon.Stats()
			if st.Observed == 0 {
				b.Fatal("monitor observed no deliveries")
			}
			if st.PolicyDrifts != 0 || st.OriginDrifts != 0 {
				b.Fatalf("bench traffic drifted off its own graph: %+v", st)
			}
		})
		return m, rounds
	}
}

func BenchmarkE4_IPCRoundTrip_MinixSendRec_Monitored(b *testing.B) {
	// The echo pair's ACM leaves both ACIDs unnamed, so the kernel records
	// them under the matrix's fallback labels.
	g := polcheck.NewGraph("bench-minix")
	g.AddFlow(polcheck.Subject("acid-1"), polcheck.Subject("acid-2"), []string{"mt0", "mt1"}, "bench")
	g.AddFlow(polcheck.Subject("acid-2"), polcheck.Subject("acid-1"), []string{"mt0"}, "bench")
	benchRoundTrips(b, monitoredRoundTrips(minixRoundTrips, g))
}

func BenchmarkE4_IPCRoundTrip_Sel4Call_Monitored(b *testing.B) {
	g := polcheck.NewGraph("bench-sel4")
	g.AddFlow(polcheck.Subject("client"), polcheck.Channel("rpc"), []string{"send"}, "bench")
	g.AddFlow(polcheck.Channel("rpc"), polcheck.Subject("server"), []string{"recv"}, "bench")
	g.AddFlow(polcheck.Subject("server"), polcheck.Channel("rpc"), []string{"send"}, "bench")
	g.AddFlow(polcheck.Channel("rpc"), polcheck.Subject("client"), []string{"recv"}, "bench")
	benchRoundTrips(b, monitoredRoundTrips(sel4RoundTrips, g))
}

func BenchmarkE4_IPCRoundTrip_LinuxMQ_Monitored(b *testing.B) {
	g := polcheck.NewGraph("bench-linux")
	g.AddFlow(polcheck.Subject("client"), polcheck.Channel("/req"), []string{"send"}, "bench")
	g.AddFlow(polcheck.Channel("/req"), polcheck.Subject("server"), []string{"recv"}, "bench")
	g.AddFlow(polcheck.Subject("server"), polcheck.Channel("/resp"), []string{"send"}, "bench")
	g.AddFlow(polcheck.Channel("/resp"), polcheck.Subject("client"), []string{"recv"}, "bench")
	benchRoundTrips(b, monitoredRoundTrips(linuxRoundTrips, g))
}

// The sharper version of the paper's overhead claim: an OS *service* (here,
// reading the temperature sensor) is one kernel entry on a monolithic
// system, because the driver lives in the kernel; on a microkernel it is a
// full IPC round trip through a user-space driver process — several kernel
// entries and at least two context switches.

// minixDeviceService: client obtains readings through the driver process.
func minixDeviceService(b testing.TB) (*machine.Machine, *int64) {
	b.Helper()
	m := machine.New(machine.Config{})
	plantAttach(m)
	policy := core.NewPolicy()
	policy.IPC.Allow(1, 2, 1).AllowBidirectionalAck(1, 2)
	policy.Seal()
	k, err := minix.Boot(m, policy, minix.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rounds := new(int64)
	k.RegisterImage(minix.Image{
		Name: "driver", Priority: 7, Devices: []machine.DeviceID{plant.DevTempSensor},
		Body: func(api *minix.API) {
			for {
				msg, err := api.Receive(minix.EndpointAny)
				if err != nil {
					return
				}
				raw, _ := api.DevRead(plant.DevTempSensor, plant.RegTempMilliC)
				reply := minix.NewMessage(0)
				reply.PutU32(0, raw)
				_ = api.Send(msg.Source, reply)
			}
		},
	})
	k.RegisterImage(minix.Image{Name: "app", Priority: 7, Body: func(api *minix.API) {
		driver, _ := api.Lookup("driver")
		for {
			if _, err := api.SendRec(driver, minix.NewMessage(1)); err != nil {
				return
			}
			*rounds++
		}
	}})
	if _, err := k.SpawnImage("driver", 2); err != nil {
		b.Fatal(err)
	}
	if _, err := k.SpawnImage("app", 1); err != nil {
		b.Fatal(err)
	}
	return m, rounds
}

// sel4DeviceService: client Calls the driver thread holding the device cap.
func sel4DeviceService(b testing.TB) (*machine.Machine, *int64) {
	b.Helper()
	m := machine.New(machine.Config{})
	plantAttach(m)
	k := sel4.NewKernel(m, sel4.Config{})
	ep := k.CreateEndpoint("drv")
	dev := k.CreateDevice(plant.DevTempSensor)
	rounds := new(int64)
	driver := k.CreateThread("driver", 7, func(api *sel4.API) {
		for {
			if _, err := api.Recv(1); err != nil {
				return
			}
			raw, _ := api.DevRead(2, plant.RegTempMilliC)
			reply := sel4.Msg{}
			reply.Words[0] = uint64(raw)
			if err := api.Reply(reply); err != nil {
				return
			}
		}
	})
	app := k.CreateThread("app", 7, func(api *sel4.API) {
		for {
			if _, err := api.Call(1, sel4.Msg{Label: 1}); err != nil {
				return
			}
			*rounds++
		}
	})
	mustInstallCap(b, k, driver, 1, sel4.EndpointCap(ep, sel4.CapRead, 0))
	mustInstallCap(b, k, driver, 2, sel4.DeviceCap(dev, sel4.CapRead))
	mustInstallCap(b, k, app, 1, sel4.EndpointCap(ep, sel4.RightsRWG, 0))
	if err := k.Start(driver); err != nil {
		b.Fatal(err)
	}
	if err := k.Start(app); err != nil {
		b.Fatal(err)
	}
	return m, rounds
}

// linuxDeviceService: the "driver" is in the kernel — one syscall per read.
func linuxDeviceService(b testing.TB) (*machine.Machine, *int64) {
	b.Helper()
	m := machine.New(machine.Config{})
	plantAttach(m)
	k := linuxsim.Boot(m, linuxsim.Config{})
	k.RegisterDeviceFile(plant.DevTempSensor, 1, 1, 0o600)
	rounds := new(int64)
	k.RegisterImage(linuxsim.Image{Name: "app", UID: 1, GID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		for {
			if _, err := api.DevRead(plant.DevTempSensor, plant.RegTempMilliC); err != nil {
				return
			}
			*rounds++
		}
	}})
	if _, err := k.SpawnImage("app"); err != nil {
		b.Fatal(err)
	}
	return m, rounds
}

func BenchmarkE4_DeviceService_Minix(b *testing.B) {
	benchRoundTrips(b, minixDeviceService)
}

func BenchmarkE4_DeviceService_Sel4(b *testing.B) {
	benchRoundTrips(b, sel4DeviceService)
}

func BenchmarkE4_DeviceService_Linux(b *testing.B) {
	benchRoundTrips(b, linuxDeviceService)
}

// plantAttach wires a default room onto a bare machine for driver benches.
func plantAttach(m *machine.Machine) {
	plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
}

func mustInstallCap(b testing.TB, k *sel4.Kernel, tcb sel4.ObjID, slot sel4.CPtr, c sel4.Capability) {
	b.Helper()
	if err := k.InstallCap(tcb, slot, c); err != nil {
		b.Fatal(err)
	}
}

// --- E5: seL4 capability brute force ------------------------------------------

func BenchmarkE5_BruteForce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := attack.Execute(attack.Spec{Platform: bas.PlatformSel4, Action: attack.ActionEnumerate})
		if err != nil {
			b.Fatal(err)
		}
		if report.Successes != 2 {
			b.Fatalf("brute force found %d usable slots, want 2", report.Successes)
		}
		b.ReportMetric(float64(report.Denials), "invalid-caps/op")
	}
}

// --- E6: AADL -> ACM compilation -----------------------------------------------

func BenchmarkE6_AADLCompile(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("internal", "aadl", "testdata", "tempcontrol.aadl"))
	if err != nil {
		b.Fatal(err)
	}
	text := string(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkg, err := aadl.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := aadl.GenerateACM(pkg, "temp_control.impl"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: fork quota vs fork bomb ------------------------------------------------

func BenchmarkE8_ForkQuota(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := attack.Execute(attack.Spec{
			Platform: bas.PlatformMinix, Action: attack.ActionForkBomb, ForkQuota: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.Successes != 5 {
			b.Fatalf("quota allowed %d forks, want 5", report.Successes)
		}
		b.ReportMetric(float64(report.Denials), "denied-forks/op")
	}
}

// --- E7 support: HTTP request service through the full stack --------------------

func BenchmarkE7_WebStatusRequest(b *testing.B) {
	cfg := bas.DefaultScenario()
	tb := bas.NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	if _, err := bas.Deploy(bas.PlatformMinix, tb, cfg, bas.DeployOptions{}); err != nil {
		b.Fatal(err)
	}
	tb.Machine.Run(5 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _, err := tb.HTTPGet("/status")
		if err != nil || status != 200 {
			b.Fatalf("status = %d, err = %v", status, err)
		}
	}
}

var _ = vnet.Port(0) // keep the import set stable across edits
