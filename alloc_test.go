package mkbas

// Allocation-regression gate for experiment E4: the IPC round-trip hot
// paths of all three platform kernels must run allocation-free at steady
// state. The benchmarks report allocs/op too, but benchmarks only run when
// someone asks; this test makes a regression (a value boxed into the trap
// `any`, a queue idiom that burns capacity, a payload copy that escapes)
// fail `go test ./...` directly.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/building"
	"mkbas/internal/core"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/sel4"
	"mkbas/internal/tenantapi"
	"mkbas/internal/vnet"
)

// runZeroAlloc drives a board to steady state — warm completed operations
// on the returned counter — then measures the allocations of further
// operations.
func runZeroAlloc(t *testing.T, build func(testing.TB) (*machine.Machine, *int64), warm int64) {
	t.Helper()
	m, rounds := build(t)
	defer m.Shutdown()
	// Warm up past boot and the first deliveries: queues, rings, and the
	// payload-buffer pools grow to their steady-state capacity here.
	for *rounds < warm {
		m.Run(time.Millisecond)
	}
	allocs := testing.AllocsPerRun(50, func() {
		goal := *rounds + 8
		for *rounds < goal {
			m.Run(50 * time.Microsecond)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state operations allocated %.1f times per 8-operation slice, want 0", allocs)
	}
}

func TestE4RoundTripZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		build func(testing.TB) (*machine.Machine, *int64)
	}{
		{"minix-sendrec", minixRoundTrips},
		{"sel4-call", sel4RoundTrips},
		{"linux-mq", linuxRoundTrips},
		{"minix-device", minixDeviceService},
		{"sel4-device", sel4DeviceService},
		{"linux-device", linuxDeviceService},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runZeroAlloc(t, tc.build, 64) })
	}
}

// TestSlowPathZeroAlloc gates the attacker-reachable refusal paths the way
// TestE4RoundTripZeroAlloc gates the certified fast path: once warm, a
// process looping on a lookup, a refused fork, a denied send, a sleep, a
// refused device access or bind, a refused queue unlink or respawn, a
// faulting capability invocation, or a CNode copy past the CSpace allocates
// nothing per call. Warm-up runs past the capacity of the board's bounded
// trace and event rings, which grow by append until full.
func TestSlowPathZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		build func(testing.TB) (*machine.Machine, *int64)
	}{
		{"minix-lookup", minixLookups},
		{"minix-fork2-table-full", minixRefusedForks},
		{"minix-acm-denied-sendnb", minixDeniedSends},
		{"minix-sleep", minixSleeps},
		{"minix-device-denied", minixDeniedDevices},
		{"minix-listen-denied", minixDeniedListens},
		{"linux-fork-at-limit", linuxRefusedForks},
		{"linux-mq-open-denied", linuxDeniedOpens},
		{"linux-sleep", linuxSleeps},
		{"linux-device-denied", linuxDeniedDevices},
		{"linux-mq-unlink-denied", linuxDeniedUnlinks},
		{"linux-respawn-denied", linuxDeniedRespawns},
		{"sel4-suspend-empty-slot", sel4EmptySuspends},
		{"sel4-device-denied", sel4DeniedDevices},
		{"sel4-send-grant-denied", sel4GrantlessSends},
		{"sel4-copy-past-cspace", sel4CopiesPastCSpace},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runZeroAlloc(t, tc.build, 20000) })
	}
}

// TestBuildingStepZeroAlloc gates a whole building round the way
// TestE4RoundTripZeroAlloc gates one IPC pair: once warm, Step allocates
// nothing — every board's control cycle on all five platforms, every
// head-end poll from HeadEnd.send through the bus, the room's gateway and
// controller and back to harvest, and every tenant request, whose setpoint
// writes cross a room's HTTP web interface. The building has five rooms,
// one per platform, with the even rooms behind the secure proxy. Four
// shapes: every room polled every round with the policy monitor on, the
// same with the tenant tier on, the bench's control shape with 30 s polls,
// and every room polled every round with a bus fault plan's hook armed.
//
// AllocsPerRun reports whole allocations per Step, so 0 means fewer than
// one per round. What is left is rare: the status line a microkernel
// controller traces every 60th sample allocates its string, and the boards'
// span and console rings still open a 4 KB block every few hundred records
// (they hold 16384 spans and 4096 lines, which a five-room building fills
// only after 10^5 rounds).
func TestBuildingStepZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		shape func(*building.Config)
	}{
		{"polled-every-round-monitor", func(cfg *building.Config) {
			cfg.HeadEnd.PollPeriod = time.Second
			cfg.Monitor = true
		}},
		{"polled-every-round-monitor-tenant", func(cfg *building.Config) {
			cfg.HeadEnd.PollPeriod = time.Second
			cfg.Monitor = true
			cfg.TenantAPI = true
		}},
		{"control-30s-polls", func(*building.Config) {}},
		// The plan's fault fires at 40 minutes, after the measured rounds,
		// so every flush asks the hook and every verdict delivers.
		{"polled-every-round-bus-hook", func(cfg *building.Config) {
			cfg.HeadEnd.PollPeriod = time.Second
			cfg.BusFaults = "bus-dup"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			platforms := bas.KnownPlatforms()
			secure := make([]bool, len(platforms))
			for i := range secure {
				secure[i] = i%2 == 0
			}
			cfg := building.Config{Rooms: len(platforms), Mix: platforms, Secure: secure, Scenario: bas.ScenarioConfig{Seed: 1}}
			tc.shape(&cfg)
			b, err := building.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			// Warm up past boot, the heat-up transient and every room's
			// first exchanges: stream, deframer and reply buffers, the bus
			// and stack free lists and the kernels' net wakers reach their
			// steady state here.
			for i := 0; i < 2000; i++ {
				b.Step()
			}
			if allocs := testing.AllocsPerRun(200, b.Step); allocs != 0 {
				t.Errorf("Step allocated %.0f times per round, want 0", allocs)
			}
			if rep := b.Report(); rep.PollsSent == 0 || rep.PollsMissed != 0 {
				t.Fatalf("head-end sent %d polls, missed %d; the gate needs a polling, healthy building", rep.PollsSent, rep.PollsMissed)
			}
		})
	}
}

// TestTenantSetpointWriteAllocs gates the tenant tier's one write path on
// every platform: TestbedBackend.WriteSetpoint posts the setpoint through
// the harness client to the board's web interface, whose parser, router
// and controller RPC run on the board. Once warm, a write allocates only
// the form value the web interface decodes. The warm-up writes span more
// virtual time than the controller's receive timeout: until then,
// back-to-back writes still grow the clock's timer free list and, on
// Linux, the message-queue buffer pool.
func TestTenantSetpointWriteAllocs(t *testing.T) {
	for _, platform := range bas.KnownPlatforms() {
		t.Run(string(platform), func(t *testing.T) {
			cfg := bas.DefaultScenario()
			tb := bas.NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			if _, err := bas.Deploy(platform, tb, cfg, bas.DeployOptions{}); err != nil {
				t.Fatal(err)
			}
			tb.Machine.Run(5 * time.Second)
			tier := bas.AttachTenantAPI([]*bas.Testbed{tb}, tenantapi.DirectoryConfig{}, tenantapi.GatewayConfig{})
			values := [...]float64{21.5, 23.25}
			n := 0
			write := func() {
				tier.Backend.WriteSetpoint(0, values[n%len(values)])
				n++
			}
			for range 200 {
				write()
			}
			if allocs := testing.AllocsPerRun(50, write); allocs > 1 {
				t.Errorf("a tenant setpoint write allocated %.0f times, want at most 1", allocs)
			}
			if got := tier.Backend.Writes(); got != int64(n) {
				t.Fatalf("board accepted %d of %d writes", got, n)
			}
		})
	}
}

// minixBoard boots MINIX with the given policy and registers one image
// whose body loops on op, counting each completed call.
func minixBoard(tb testing.TB, policy *core.Policy, op func(api *minix.API, rounds *int64)) (*machine.Machine, *minix.Kernel, *int64) {
	tb.Helper()
	m := machine.New(machine.Config{})
	k, err := minix.Boot(m, policy.Seal(), minix.Config{Net: vnet.NewStack()})
	if err != nil {
		tb.Fatal(err)
	}
	rounds := new(int64)
	k.RegisterImage(minix.Image{Name: "looper", Priority: 7, Body: func(api *minix.API) {
		for {
			op(api, rounds)
		}
	}})
	k.RegisterImage(minix.Image{Name: "idle", Priority: 9, Body: func(api *minix.API) {
		for {
			api.Sleep(time.Hour)
		}
	}})
	if _, err := k.SpawnImage("looper", 1); err != nil {
		tb.Fatal(err)
	}
	return m, k, rounds
}

// minixLookups resolves a published name over and over.
func minixLookups(tb testing.TB) (*machine.Machine, *int64) {
	m, _, rounds := minixBoard(tb, core.NewPolicy(), func(api *minix.API, rounds *int64) {
		if _, err := api.Lookup(minix.PMName); err != nil {
			panic(err)
		}
		*rounds++
	})
	return m, rounds
}

// minixRefusedForks fills the process table, then asks PM for fork2 over
// and over: PM grants the call and the kernel refuses it for want of a slot.
func minixRefusedForks(tb testing.TB) (*machine.Machine, *int64) {
	policy := core.NewPolicy()
	policy.Syscalls.Grant(1, core.SysFork)
	m, k, rounds := minixBoard(tb, policy, func(api *minix.API, rounds *int64) {
		if _, err := api.Fork2("idle", 0); !errors.Is(err, minix.ErrTableFull) {
			panic(fmt.Sprintf("fork2 into a full table = %v", err))
		}
		*rounds++
	})
	for {
		if _, err := k.SpawnImage("idle", 2); err != nil {
			break
		}
	}
	return m, rounds
}

// minixDeniedSends sends a message type the ACM does not grant, over and
// over.
func minixDeniedSends(tb testing.TB) (*machine.Machine, *int64) {
	policy := core.NewPolicy()
	policy.IPC.AllowBidirectionalAck(1, 2)
	m, k, rounds := minixBoard(tb, policy, func(api *minix.API, rounds *int64) {
		dst, _ := api.Lookup("idle")
		if err := api.SendNB(dst, minix.NewMessage(1)); !errors.Is(err, core.ErrDenied) {
			panic(fmt.Sprintf("denied send = %v", err))
		}
		*rounds++
	})
	if _, err := k.SpawnImage("idle", 2); err != nil {
		tb.Fatal(err)
	}
	return m, rounds
}

// minixSleeps sleeps over and over.
func minixSleeps(tb testing.TB) (*machine.Machine, *int64) {
	m, _, rounds := minixBoard(tb, core.NewPolicy(), func(api *minix.API, rounds *int64) {
		api.Sleep(time.Microsecond)
		*rounds++
	})
	return m, rounds
}

// minixDeniedDevices reads and writes a device its image does not list,
// over and over.
func minixDeniedDevices(tb testing.TB) (*machine.Machine, *int64) {
	m, _, rounds := minixBoard(tb, core.NewPolicy(), func(api *minix.API, rounds *int64) {
		_, rerr := api.DevRead("heater", 0)
		werr := api.DevWrite("heater", 0, 1)
		if !errors.Is(rerr, minix.ErrNoPrivilege) || !errors.Is(werr, minix.ErrNoPrivilege) {
			panic(fmt.Sprintf("device access without the privilege = %v, %v", rerr, werr))
		}
		*rounds++
	})
	return m, rounds
}

// minixDeniedListens binds a port from an image without the network
// privilege, over and over.
func minixDeniedListens(tb testing.TB) (*machine.Machine, *int64) {
	m, _, rounds := minixBoard(tb, core.NewPolicy(), func(api *minix.API, rounds *int64) {
		if _, err := api.NetListen(8080); !errors.Is(err, minix.ErrNoPrivilege) {
			panic(fmt.Sprintf("listen without the privilege = %v", err))
		}
		*rounds++
	})
	return m, rounds
}

// linuxBoard boots Linux with the given process limit and registers one
// image whose body loops on op, counting each completed call.
func linuxBoard(tb testing.TB, maxProcs int, op func(api *linuxsim.API, rounds *int64)) (*machine.Machine, *linuxsim.Kernel, *int64) {
	tb.Helper()
	m := machine.New(machine.Config{})
	k := linuxsim.Boot(m, linuxsim.Config{MaxProcs: maxProcs})
	rounds := new(int64)
	k.RegisterImage(linuxsim.Image{Name: "looper", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		for {
			op(api, rounds)
		}
	}})
	k.RegisterImage(linuxsim.Image{Name: "idle", UID: 1, Priority: 9, Body: func(api *linuxsim.API) {
		for {
			api.Sleep(time.Hour)
		}
	}})
	if _, err := k.SpawnImage("looper"); err != nil {
		tb.Fatal(err)
	}
	return m, k, rounds
}

// linuxRefusedForks forks against a full process limit over and over.
func linuxRefusedForks(tb testing.TB) (*machine.Machine, *int64) {
	m, k, rounds := linuxBoard(tb, 8, func(api *linuxsim.API, rounds *int64) {
		if _, err := api.Fork("idle"); !errors.Is(err, linuxsim.ErrAgain) {
			panic(fmt.Sprintf("fork at the process limit = %v", err))
		}
		*rounds++
	})
	for {
		if _, err := k.SpawnImage("idle"); err != nil {
			break
		}
	}
	return m, rounds
}

// linuxDeniedOpens asks for write access to a read-only queue over and
// over: the first call creates the queue, and DAC refuses every call.
func linuxDeniedOpens(tb testing.TB) (*machine.Machine, *int64) {
	m, _, rounds := linuxBoard(tb, 0, func(api *linuxsim.API, rounds *int64) {
		flags := linuxsim.MQOpenFlags{Create: true, Write: true, Mode: linuxsim.ModeUserRead}
		if _, err := api.MQOpen("/ro", flags); !errors.Is(err, linuxsim.ErrPerm) {
			panic(fmt.Sprintf("write open of a read-only queue = %v", err))
		}
		*rounds++
	})
	return m, rounds
}

// linuxSleeps sleeps over and over.
func linuxSleeps(tb testing.TB) (*machine.Machine, *int64) {
	m, _, rounds := linuxBoard(tb, 0, func(api *linuxsim.API, rounds *int64) {
		api.Sleep(time.Microsecond)
		*rounds++
	})
	return m, rounds
}

// linuxDeniedDevices reads and writes a device whose /dev node only root
// may open, over and over.
func linuxDeniedDevices(tb testing.TB) (*machine.Machine, *int64) {
	m, k, rounds := linuxBoard(tb, 0, func(api *linuxsim.API, rounds *int64) {
		_, rerr := api.DevRead("heater", 0)
		werr := api.DevWrite("heater", 0, 1)
		if !errors.Is(rerr, linuxsim.ErrPerm) || !errors.Is(werr, linuxsim.ErrPerm) {
			panic(fmt.Sprintf("device access against the /dev mode = %v, %v", rerr, werr))
		}
		*rounds++
	})
	k.RegisterDeviceFile("heater", 0, 0, linuxsim.ModeUserRead|linuxsim.ModeUserWrite)
	return m, rounds
}

// linuxDeniedUnlinks unlinks a queue another account owns, over and over.
func linuxDeniedUnlinks(tb testing.TB) (*machine.Machine, *int64) {
	m, k, rounds := linuxBoard(tb, 0, func(api *linuxsim.API, rounds *int64) {
		if err := api.MQUnlink("/theirs"); !errors.Is(err, linuxsim.ErrPerm) {
			panic(fmt.Sprintf("unlink of another account's queue = %v", err))
		}
		*rounds++
	})
	// The owner runs first, at a more urgent priority than the looper.
	k.RegisterImage(linuxsim.Image{Name: "owner", UID: 2, Priority: 1, Body: func(api *linuxsim.API) {
		if _, err := api.MQOpen("/theirs", linuxsim.MQOpenFlags{Create: true, Read: true, Mode: linuxsim.ModeUserRead}); err != nil {
			panic(err)
		}
		for {
			api.Sleep(time.Hour)
		}
	}})
	if _, err := k.SpawnImage("owner"); err != nil {
		tb.Fatal(err)
	}
	return m, rounds
}

// linuxDeniedRespawns asks, as an unprivileged account, for a supervisor
// respawn over and over.
func linuxDeniedRespawns(tb testing.TB) (*machine.Machine, *int64) {
	m, _, rounds := linuxBoard(tb, 0, func(api *linuxsim.API, rounds *int64) {
		if _, err := api.Respawn("idle"); !errors.Is(err, linuxsim.ErrPerm) {
			panic(fmt.Sprintf("respawn without root = %v", err))
		}
		*rounds++
	})
	return m, rounds
}

// sel4EmptySuspends invokes TCB_Suspend on an empty CSpace slot over and
// over — one slot of the kill-controller brute force.
func sel4EmptySuspends(tb testing.TB) (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	rounds := new(int64)
	th := k.CreateThread("looper", 7, func(api *sel4.API) {
		for {
			if err := api.TCBSuspend(5); !errors.Is(err, sel4.ErrInvalidCap) {
				panic(fmt.Sprintf("suspend through an empty slot = %v", err))
			}
			*rounds++
		}
	})
	if err := k.Start(th); err != nil {
		tb.Fatal(err)
	}
	return m, rounds
}

// sel4DeniedDevices reads through an empty slot and writes through a
// read-only device capability, over and over.
func sel4DeniedDevices(tb testing.TB) (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	rounds := new(int64)
	th := k.CreateThread("looper", 7, func(api *sel4.API) {
		for {
			_, rerr := api.DevRead(5, 0)
			werr := api.DevWrite(1, 0, 1)
			if !errors.Is(rerr, sel4.ErrInvalidCap) || !errors.Is(werr, sel4.ErrNoRights) {
				panic(fmt.Sprintf("device access without the capability or right = %v, %v", rerr, werr))
			}
			*rounds++
		}
	})
	dev := k.CreateDevice("heater")
	if err := k.InstallCap(th, 1, sel4.Capability{Kind: sel4.KindDevice, Object: dev, Rights: sel4.CapRead}); err != nil {
		tb.Fatal(err)
	}
	if err := k.Start(th); err != nil {
		tb.Fatal(err)
	}
	return m, rounds
}

// sel4GrantlessSends sends a capability through an endpoint capability
// without the grant right, over and over.
func sel4GrantlessSends(tb testing.TB) (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	rounds := new(int64)
	slot := sel4.CPtr(1)
	th := k.CreateThread("looper", 7, func(api *sel4.API) {
		msg := sel4.Msg{TransferCap: &slot}
		for {
			if err := api.NBSend(1, msg); !errors.Is(err, sel4.ErrNoRights) {
				panic(fmt.Sprintf("capability transfer without the grant right = %v", err))
			}
			*rounds++
		}
	})
	ep := k.CreateEndpoint("chan")
	if err := k.InstallCap(th, 1, sel4.EndpointCap(ep, sel4.CapWrite, 0)); err != nil {
		tb.Fatal(err)
	}
	if err := k.Start(th); err != nil {
		tb.Fatal(err)
	}
	return m, rounds
}

// sel4CopiesPastCSpace copies a capability into a slot past the CSpace,
// over and over.
func sel4CopiesPastCSpace(tb testing.TB) (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	rounds := new(int64)
	th := k.CreateThread("looper", 7, func(api *sel4.API) {
		for {
			if err := api.CapCopy(1, sel4.CSpaceSize); !errors.Is(err, sel4.ErrBadSlot) {
				panic(fmt.Sprintf("copy past the CSpace = %v", err))
			}
			*rounds++
		}
	})
	ep := k.CreateEndpoint("chan")
	if err := k.InstallCap(th, 1, sel4.EndpointCap(ep, sel4.CapWrite, 0)); err != nil {
		tb.Fatal(err)
	}
	if err := k.Start(th); err != nil {
		tb.Fatal(err)
	}
	return m, rounds
}

// The linuxsim payload pool hands each receiver the kernel's pooled copy,
// valid until that process's next receive. This test runs an echo pair
// where every message carries a distinct payload and the client verifies
// each echo byte-for-byte — a pool bug that aliased a live buffer or
// recycled one too early would corrupt an observed payload.
func TestLinuxMQPooledPayloadIntegrity(t *testing.T) {
	m := machine.New(machine.Config{})
	defer m.Shutdown()
	k := linuxsim.Boot(m, linuxsim.Config{})
	rounds := new(int64)
	var failure error
	k.RegisterImage(linuxsim.Image{Name: "server", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		req, err := api.MQOpen("/req", linuxsim.MQOpenFlags{Create: true, Read: true, Mode: 0o600})
		if err != nil {
			return
		}
		resp, err := api.MQOpen("/resp", linuxsim.MQOpenFlags{Create: true, Write: true, Mode: 0o600})
		if err != nil {
			return
		}
		buf := make([]byte, 0, 32)
		for {
			msg, err := api.MQReceive(req)
			if err != nil {
				return
			}
			// msg.Data is valid until the next MQReceive; we copy, mark, and
			// send before receiving again.
			buf = append(buf[:0], msg.Data...)
			buf = append(buf, '!')
			if err := api.MQSend(resp, buf, 0); err != nil {
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
		buf := make([]byte, 0, 32)
		for i := 0; ; i++ {
			buf = fmt.Appendf(buf[:0], "m%03d", i%1000)
			if err := api.MQSend(req, buf, 0); err != nil {
				return
			}
			msg, err := api.MQReceive(resp)
			if err != nil {
				return
			}
			if want := string(buf) + "!"; string(msg.Data) != want {
				failure = fmt.Errorf("round %d: got %q, want %q", i, msg.Data, want)
				return
			}
			*rounds++
		}
	}})
	if _, err := k.SpawnImage("server"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnImage("client"); err != nil {
		t.Fatal(err)
	}
	for *rounds < 256 && failure == nil {
		m.Run(time.Second)
	}
	if failure != nil {
		t.Fatal(failure)
	}
}
