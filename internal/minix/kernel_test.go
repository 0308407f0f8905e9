package minix

import (
	"errors"
	"testing"
	"time"

	"mkbas/internal/core"
	"mkbas/internal/machine"
	"mkbas/internal/plant"
	"mkbas/internal/vnet"
)

// Test ACIDs.
const (
	acidA core.ACID = 100
	acidB core.ACID = 101
	acidC core.ACID = 102
)

// testPolicy allows A -> B types {0,1}, B -> A type {0}, and nothing else.
func testPolicy() *core.Policy {
	p := core.NewPolicy()
	p.IPC.Allow(acidA, acidB, 0, 1)
	p.IPC.Allow(acidB, acidA, 0)
	return p.Seal()
}

// testBoard boots a kernel on a fresh board.
func testBoard(t *testing.T, policy *core.Policy, cfg Config) (*machine.Machine, *Kernel) {
	t.Helper()
	m := machine.New(machine.Config{})
	k, err := Boot(m, policy, cfg)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(m.Shutdown)
	return m, k
}

func spawnOrFatal(t *testing.T, k *Kernel, image string, acid core.ACID) Endpoint {
	t.Helper()
	ep, err := k.SpawnImage(image, acid)
	if err != nil {
		t.Fatalf("SpawnImage(%q): %v", image, err)
	}
	return ep
}

func TestSendReceiveDeliversPayloadAndStampsSource(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var got Message
	var recvErr error
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		got, recvErr = api.Receive(EndpointAny)
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, err := api.Lookup("b")
		if err != nil {
			t.Errorf("lookup b: %v", err)
			return
		}
		msg := NewMessage(1)
		msg.PutF64(0, 21.5)
		msg.Source = 0xDEADBEEF // attempt to forge: kernel must overwrite
		if err := api.Send(dst, msg); err != nil {
			t.Errorf("send: %v", err)
		}
	}})
	epB := spawnOrFatal(t, k, "b", acidB)
	epA := spawnOrFatal(t, k, "a", acidA)
	_ = epB
	m.Run(time.Second)
	if recvErr != nil {
		t.Fatalf("receive: %v", recvErr)
	}
	if got.Type != 1 || got.F64(0) != 21.5 {
		t.Fatalf("message = %v f64=%v", got, got.F64(0))
	}
	if got.Source != epA {
		t.Fatalf("source = %v, want kernel-stamped %v (forgery must fail)", got.Source, epA)
	}
}

func TestACMDeniesUnauthorizedType(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var sendErr error
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		api.Receive(EndpointAny) // would block forever if nothing arrives
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		sendErr = api.Send(dst, NewMessage(2)) // type 2 not granted
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if !errors.Is(sendErr, core.ErrDenied) {
		t.Fatalf("send err = %v, want ACM denial", sendErr)
	}
	if n := m.Obs().Metrics().Counter("minix_ipc_denied_total").Value(); n != 1 {
		t.Fatalf("minix_ipc_denied_total = %d, want 1", n)
	}
	if len(m.Trace().Grep("DENY")) == 0 {
		t.Fatal("no audit line for the denial")
	}
}

func TestACMDeniesUnauthorizedPair(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var sendErr error
	k.RegisterImage(Image{Name: "c", Priority: 7, Body: func(api *API) {
		api.Receive(EndpointAny)
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("c")
		sendErr = api.Send(dst, NewMessage(0))
	}})
	spawnOrFatal(t, k, "c", acidC)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if !errors.Is(sendErr, core.ErrDenied) {
		t.Fatalf("send err = %v, want ACM denial (no A->C cell)", sendErr)
	}
}

func TestDisableACMAllowsEverything(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{DisableACM: true})
	var sendErr error
	var got Message
	k.RegisterImage(Image{Name: "c", Priority: 7, Body: func(api *API) {
		got, _ = api.Receive(EndpointAny)
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("c")
		sendErr = api.Send(dst, NewMessage(9))
	}})
	spawnOrFatal(t, k, "c", acidC)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if sendErr != nil {
		t.Fatalf("vanilla kernel denied send: %v", sendErr)
	}
	if got.Type != 9 {
		t.Fatalf("message not delivered: %v", got)
	}
}

func TestMessageTypeOutOfACMRangeDenied(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var sendErr error
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		api.Receive(EndpointAny)
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		sendErr = api.Send(dst, NewMessage(200))
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if !errors.Is(sendErr, core.ErrDenied) {
		t.Fatalf("send err = %v, want denial for type 200", sendErr)
	}
}

func TestSendRecRPCRoundTrip(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var reply Message
	var rpcErr error
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		req, err := api.Receive(EndpointAny)
		if err != nil {
			return
		}
		resp := NewMessage(0)
		resp.PutF64(0, req.F64(0)*2)
		api.Send(req.Source, resp)
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		req := NewMessage(1)
		req.PutF64(0, 10)
		reply, rpcErr = api.SendRec(dst, req)
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if rpcErr != nil {
		t.Fatalf("sendrec: %v", rpcErr)
	}
	if reply.F64(0) != 20 {
		t.Fatalf("reply payload = %v, want 20", reply.F64(0))
	}
}

func TestSendNBQueuesInMailbox(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var errs []error
	var received []float64
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		for i := 0; i <= mailboxCap; i++ {
			msg := NewMessage(1)
			msg.PutF64(0, float64(i))
			errs = append(errs, api.SendNB(dst, msg))
		}
	}})
	k.RegisterImage(Image{Name: "b", Priority: 8, Body: func(api *API) {
		api.Sleep(10 * time.Millisecond) // let the sender fill the mailbox
		for i := 0; i < mailboxCap; i++ {
			msg, err := api.Receive(EndpointAny)
			if err == nil {
				received = append(received, msg.F64(0))
			}
		}
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	for i, err := range errs[:mailboxCap] {
		if err != nil {
			t.Fatalf("send %d should queue: %v", i, err)
		}
	}
	if !errors.Is(errs[mailboxCap], ErrMailboxFull) {
		t.Fatalf("send %d err = %v, want ErrMailboxFull", mailboxCap, errs[mailboxCap])
	}
	if len(received) != mailboxCap {
		t.Fatalf("received %d messages, want %d", len(received), mailboxCap)
	}
	for i, v := range received {
		if v != float64(i) {
			t.Fatalf("received = %v, want FIFO 0..%d", received, mailboxCap-1)
		}
	}
}

func TestNotifyCollapsesAndHasPriority(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var order []int32
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		msg := NewMessage(1)
		if err := api.SendNB(dst, msg); err != nil {
			t.Errorf("sendnb: %v", err)
		}
		// Two notifications collapse into one.
		api.Notify(dst)
		api.Notify(dst)
	}})
	k.RegisterImage(Image{Name: "b", Priority: 8, Body: func(api *API) {
		api.Sleep(10 * time.Millisecond)
		for i := 0; i < 2; i++ {
			msg, err := api.Receive(EndpointAny)
			if err == nil {
				order = append(order, msg.Type)
			}
		}
		// A third receive must block: the second notify collapsed.
		_, err := api.Receive(EndpointAny)
		if err == nil {
			t.Error("third receive returned; notification did not collapse")
		}
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	res := m.Run(time.Second)
	if res.Reason != machine.StopIdle {
		t.Fatalf("run reason = %v, want idle (b blocked on third receive)", res.Reason)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v, want notification (type 0) before message (type 1)", order)
	}
}

func TestReceiveFromSpecificSource(t *testing.T) {
	policy := core.NewPolicy()
	policy.IPC.Allow(acidA, acidC, 1)
	policy.IPC.Allow(acidB, acidC, 2)
	policy.Seal()
	m, k := testBoard(t, policy, Config{})
	var first Message
	k.RegisterImage(Image{Name: "c", Priority: 8, Body: func(api *API) {
		api.Sleep(20 * time.Millisecond) // let both senders queue
		epB, _ := api.Lookup("b")
		first, _ = api.Receive(epB) // selective receive: b even though a queued first
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("c")
		api.Send(dst, NewMessage(1))
	}})
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		api.Sleep(5 * time.Millisecond)
		dst, _ := api.Lookup("c")
		api.Send(dst, NewMessage(2))
	}})
	spawnOrFatal(t, k, "c", acidC)
	spawnOrFatal(t, k, "a", acidA)
	spawnOrFatal(t, k, "b", acidB)
	m.Run(time.Second)
	if first.Type != 2 {
		t.Fatalf("selective receive got type %d, want 2 (from b)", first.Type)
	}
}

func TestSendToDeadEndpointFails(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var sendErr error
	var epB Endpoint
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		// exits immediately
	}})
	k.RegisterImage(Image{Name: "a", Priority: 8, Body: func(api *API) {
		api.Sleep(10 * time.Millisecond) // let b exit
		sendErr = api.Send(epB, NewMessage(1))
	}})
	epB = spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if !errors.Is(sendErr, ErrDeadSrcDst) {
		t.Fatalf("send err = %v, want ErrDeadSrcDst", sendErr)
	}
}

func TestBlockedSenderWokenWhenReceiverDies(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var sendErr error
	sendReturned := false
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		api.Sleep(20 * time.Millisecond)
		api.Exit() // die without ever receiving
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		sendErr = api.Send(dst, NewMessage(1))
		sendReturned = true
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if !sendReturned {
		t.Fatal("sender still blocked after receiver died")
	}
	if !errors.Is(sendErr, ErrDeadSrcDst) {
		t.Fatalf("send err = %v, want ErrDeadSrcDst", sendErr)
	}
}

func TestStaleEndpointAfterRestartIsDead(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	epOld := spawnOrFatal(t, k, "b", acidB)
	m.Run(10 * time.Millisecond)
	// Kill and respawn into (likely) the same slot.
	entry := k.resolve(epOld)
	if entry == nil {
		t.Fatal("b not live")
	}
	entry.exiting = true
	if err := m.Engine().Kill(entry.PID); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	epNew := spawnOrFatal(t, k, "b", acidB)
	if epOld == epNew {
		t.Fatalf("endpoint reused verbatim: %v", epOld)
	}
	if epOld.Slot() == epNew.Slot() && epOld.Generation() == epNew.Generation() {
		t.Fatal("generation did not advance")
	}
	if k.Alive(epOld) {
		t.Fatal("stale endpoint still resolves")
	}
	if !k.Alive(epNew) {
		t.Fatal("new endpoint does not resolve")
	}
}

func TestDevicePrivilegeEnforced(t *testing.T) {
	m := machine.New(machine.Config{})
	room := plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
	_ = room
	k, err := Boot(m, testPolicy(), Config{})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(m.Shutdown)

	var readVal uint32
	var readErr, deniedErr error
	k.RegisterImage(Image{
		Name: "driver", Priority: 7,
		Devices: []machine.DeviceID{plant.DevTempSensor},
		Body: func(api *API) {
			readVal, readErr = api.DevRead(plant.DevTempSensor, plant.RegTempMilliC)
		},
	})
	k.RegisterImage(Image{Name: "intruder", Priority: 7, Body: func(api *API) {
		_, deniedErr = api.DevRead(plant.DevTempSensor, plant.RegTempMilliC)
	}})
	spawnOrFatal(t, k, "driver", acidA)
	spawnOrFatal(t, k, "intruder", acidB)
	m.Run(time.Second)
	if readErr != nil {
		t.Fatalf("driver read: %v", readErr)
	}
	if got := plant.DecodeTemp(readVal); got < 17 || got > 19 {
		t.Fatalf("driver read temp %v, want ~18", got)
	}
	if !errors.Is(deniedErr, ErrNoPrivilege) {
		t.Fatalf("intruder err = %v, want ErrNoPrivilege", deniedErr)
	}
}

func TestPMFork2InheritsACID(t *testing.T) {
	m, k := testBoard(t, forkPolicy(), Config{})
	var childACID core.ACID
	k.RegisterImage(Image{Name: "child", Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "parent", Priority: 7, Body: func(api *API) {
		ep, err := api.Fork2("child", 0)
		if err != nil {
			t.Errorf("fork2: %v", err)
			return
		}
		acid, err := k.ACIDOf(ep)
		if err != nil {
			t.Errorf("ACIDOf: %v", err)
		}
		childACID = acid
	}})
	spawnOrFatal(t, k, "parent", acidA)
	m.Run(time.Second)
	if childACID != acidA {
		t.Fatalf("child acid = %d, want inherited %d", childACID, acidA)
	}
}

// forkPolicy grants A fork but not set_acid or kill.
func forkPolicy() *core.Policy {
	p := core.NewPolicy()
	p.Syscalls.Grant(acidA, core.SysFork)
	return p.Seal()
}

func TestPMFork2WithForeignACIDNeedsSetACID(t *testing.T) {
	m, k := testBoard(t, forkPolicy(), Config{})
	var forkErr error
	k.RegisterImage(Image{Name: "child", Priority: 7, Body: func(api *API) {}})
	k.RegisterImage(Image{Name: "parent", Priority: 7, Body: func(api *API) {
		_, forkErr = api.Fork2("child", uint32(acidC))
	}})
	spawnOrFatal(t, k, "parent", acidA)
	m.Run(time.Second)
	if !errors.Is(forkErr, ErrPMDenied) {
		t.Fatalf("fork2 err = %v, want PM denial (no set_acid grant)", forkErr)
	}
}

func TestPMKillDeniedWithoutGrant(t *testing.T) {
	m, k := testBoard(t, forkPolicy(), Config{})
	var killErr error
	var victimEP Endpoint
	k.RegisterImage(Image{Name: "victim", Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "killer", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("victim")
		killErr = api.Kill(dst)
	}})
	victimEP = spawnOrFatal(t, k, "victim", acidB)
	spawnOrFatal(t, k, "killer", acidA)
	m.Run(time.Second)
	if !errors.Is(killErr, ErrPMDenied) {
		t.Fatalf("kill err = %v, want PM denial", killErr)
	}
	if !k.Alive(victimEP) {
		t.Fatal("victim died despite denial")
	}
	if k.PM().KillsDenied() != 1 {
		t.Fatalf("KillsDenied = %d, want 1", k.PM().KillsDenied())
	}
}

func TestPMKillGrantedWorks(t *testing.T) {
	p := core.NewPolicy()
	p.Syscalls.Grant(acidA, core.SysKill)
	p.Seal()
	m, k := testBoard(t, p, Config{})
	var killErr error
	var victimEP Endpoint
	k.RegisterImage(Image{Name: "victim", Priority: 7, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "killer", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("victim")
		killErr = api.Kill(dst)
	}})
	victimEP = spawnOrFatal(t, k, "victim", acidB)
	spawnOrFatal(t, k, "killer", acidA)
	m.Run(time.Second)
	if killErr != nil {
		t.Fatalf("kill: %v", killErr)
	}
	if k.Alive(victimEP) {
		t.Fatal("victim survived a granted kill")
	}
}

func TestPMForkQuotaStopsForkBomb(t *testing.T) {
	p := core.NewPolicy()
	p.Syscalls.GrantQuota(acidA, core.SysFork, 3)
	p.Seal()
	m, k := testBoard(t, p, Config{})
	var granted, denied int
	var lastErr error
	k.RegisterImage(Image{Name: "drone", Priority: 9, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "bomber", Priority: 7, Body: func(api *API) {
		for i := 0; i < 50; i++ {
			if _, err := api.Fork2("drone", 0); err != nil {
				denied++
				lastErr = err
			} else {
				granted++
			}
		}
	}})
	spawnOrFatal(t, k, "bomber", acidA)
	m.Run(time.Second)
	if granted != 3 || denied != 47 {
		t.Fatalf("granted=%d denied=%d, want 3/47", granted, denied)
	}
	if !errors.Is(lastErr, ErrPMQuota) {
		t.Fatalf("denial err = %v, want quota", lastErr)
	}
	if got := k.PM().ForkQuotaRemaining(acidA); got != 0 {
		t.Fatalf("remaining quota = %d, want 0", got)
	}
}

func TestRSRestartsCrashedDriver(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	starts := 0
	k.RegisterImage(Image{
		Name: "flaky-driver", Priority: 7, Restart: true,
		Body: func(api *API) {
			starts++
			if starts == 1 {
				panic("driver bug") // first incarnation crashes
			}
			api.Sleep(time.Hour)
		},
	})
	ep1 := spawnOrFatal(t, k, "flaky-driver", acidA)
	m.Run(time.Second)
	if starts != 2 {
		t.Fatalf("starts = %d, want 2 (crash + reincarnation)", starts)
	}
	if k.RS().Restarts("flaky-driver") != 1 {
		t.Fatalf("RS restarts = %d, want 1", k.RS().Restarts("flaky-driver"))
	}
	ep2, err := k.EndpointOf("flaky-driver")
	if err != nil {
		t.Fatalf("driver not republished: %v", err)
	}
	if ep2 == ep1 {
		t.Fatal("reincarnated driver has the same endpoint")
	}
	acid, err := k.ACIDOf(ep2)
	if err != nil || acid != acidA {
		t.Fatalf("reincarnated acid = %d,%v want %d (policy must keep applying)", acid, err, acidA)
	}
}

func TestRSGivesUpAfterCrashLoop(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	starts := 0
	k.RegisterImage(Image{
		Name: "doomed", Priority: 7, Restart: true,
		Body: func(api *API) {
			starts++
			panic("always crashes")
		},
	})
	spawnOrFatal(t, k, "doomed", acidA)
	m.Run(time.Minute)
	if starts != maxRestartsPerImage+1 {
		t.Fatalf("starts = %d, want %d (initial + capped restarts)", starts, maxRestartsPerImage+1)
	}
}

func TestNonRestartImageStaysDead(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	starts := 0
	k.RegisterImage(Image{Name: "oneshot", Priority: 7, Body: func(api *API) {
		starts++
		panic("crash")
	}})
	spawnOrFatal(t, k, "oneshot", acidA)
	m.Run(time.Second)
	if starts != 1 {
		t.Fatalf("starts = %d, want 1", starts)
	}
}

func TestNetRequiresPrivilege(t *testing.T) {
	stack := vnet.NewStack()
	m, k := testBoard(t, testPolicy(), Config{Net: stack})
	var listenErr error
	k.RegisterImage(Image{Name: "noprivs", Priority: 7, Body: func(api *API) {
		_, listenErr = api.NetListen(8080)
	}})
	spawnOrFatal(t, k, "noprivs", acidA)
	m.Run(time.Second)
	if !errors.Is(listenErr, ErrNoPrivilege) {
		t.Fatalf("listen err = %v, want ErrNoPrivilege", listenErr)
	}
}

func TestExitFreesSlotAndName(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(Image{Name: "brief", Priority: 7, Body: func(api *API) {
		api.Exit()
	}})
	ep := spawnOrFatal(t, k, "brief", acidA)
	m.Run(time.Second)
	if k.Alive(ep) {
		t.Fatal("exited process still alive")
	}
	if _, err := k.EndpointOf("brief"); !errors.Is(err, ErrNameNotFound) {
		t.Fatalf("name lookup after exit = %v, want not-found", err)
	}
	if crashes := m.Trace().Grep("CRASH"); len(crashes) != 0 {
		t.Fatalf("voluntary exit logged as a crash: %v", crashes)
	}
}

func TestSelfSendRefused(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var sendErr error
	k.RegisterImage(Image{Name: "narcissist", Priority: 7, Body: func(api *API) {
		sendErr = api.Send(api.Self(), NewMessage(0))
	}})
	spawnOrFatal(t, k, "narcissist", acidA)
	m.Run(time.Second)
	if !errors.Is(sendErr, ErrSelfSend) {
		t.Fatalf("err = %v, want ErrSelfSend", sendErr)
	}
}

func TestUnprivilegedKernelCallsDenied(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	var spawnErr, killErr error
	k.RegisterImage(Image{Name: "sneaky", Priority: 7, Body: func(api *API) {
		_, spawnErr = api.kSpawn("anything", acidC)
		killErr = api.kKill(api.Self())
	}})
	spawnOrFatal(t, k, "sneaky", acidA)
	m.Run(time.Second)
	if !errors.Is(spawnErr, ErrNoPrivilege) {
		t.Fatalf("kSpawn err = %v, want ErrNoPrivilege", spawnErr)
	}
	if !errors.Is(killErr, ErrNoPrivilege) {
		t.Fatalf("kKill err = %v, want ErrNoPrivilege", killErr)
	}
}

func TestBootRequiresSealedPolicy(t *testing.T) {
	m := machine.New(machine.Config{})
	if _, err := Boot(m, core.NewPolicy(), Config{}); !errors.Is(err, core.ErrNotSealed) {
		t.Fatalf("Boot err = %v, want ErrNotSealed", err)
	}
}

func TestMessagePayloadCodec(t *testing.T) {
	var msg Message
	msg.PutU32(0, 42)
	msg.PutF64(8, 3.14)
	msg.PutI64(16, -7)
	msg.PutString(24, "hello")
	if msg.U32(0) != 42 || msg.F64(8) != 3.14 || msg.I64(16) != -7 || msg.GetString(24) != "hello" {
		t.Fatalf("codec round trip failed: %v %v %v %q",
			msg.U32(0), msg.F64(8), msg.I64(16), msg.GetString(24))
	}
}

func TestMessageStringTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized PutString did not panic")
		}
	}()
	var msg Message
	msg.PutString(40, "this string is definitely longer than sixteen bytes")
}

func TestEndpointEncoding(t *testing.T) {
	ep := makeEndpoint(17, 3)
	if ep.Slot() != 17 || ep.Generation() != 3 {
		t.Fatalf("slot=%d gen=%d, want 17/3", ep.Slot(), ep.Generation())
	}
	if ep.String() != "ep(17:3)" {
		t.Fatalf("String = %q", ep.String())
	}
}
