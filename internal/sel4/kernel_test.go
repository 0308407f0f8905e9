package sel4

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/plant"
	"mkbas/internal/vnet"
)

func newBoard(t *testing.T) (*machine.Machine, *Kernel) {
	t.Helper()
	m := machine.New(machine.Config{})
	k := NewKernel(m, Config{})
	t.Cleanup(m.Shutdown)
	return m, k
}

func mustStart(t *testing.T, k *Kernel, tcbID ObjID) {
	t.Helper()
	if err := k.Start(tcbID); err != nil {
		t.Fatalf("Start(%d): %v", tcbID, err)
	}
}

func mustInstall(t *testing.T, k *Kernel, tcbID ObjID, slot CPtr, c Capability) {
	t.Helper()
	if err := k.InstallCap(tcbID, slot, c); err != nil {
		t.Fatalf("InstallCap(%d,%d): %v", tcbID, slot, err)
	}
}

func TestSendRecvThroughSharedEndpoint(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	var got RecvResult
	var recvErr error
	server := k.CreateThread("server", 7, func(api *API) {
		got, recvErr = api.Recv(1)
	})
	client := k.CreateThread("client", 7, func(api *API) {
		msg := Msg{Label: 42}
		msg.Words[0] = 7
		if err := api.Send(1, msg); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	mustInstall(t, k, server, 1, EndpointCap(ep, CapRead, 0))
	mustInstall(t, k, client, 1, EndpointCap(ep, CapWrite, 99))
	mustStart(t, k, server)
	mustStart(t, k, client)
	m.Run(time.Second)
	if recvErr != nil {
		t.Fatalf("recv: %v", recvErr)
	}
	if got.Msg.Label != 42 || got.Msg.Words[0] != 7 {
		t.Fatalf("got %+v", got.Msg)
	}
	if got.Badge != 99 {
		t.Fatalf("badge = %d, want minted 99", got.Badge)
	}
}

func TestSendWithoutCapabilityFails(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	_ = ep
	var sendErr error
	lone := k.CreateThread("lone", 7, func(api *API) {
		sendErr = api.Send(1, Msg{Label: 1}) // slot 1 is empty
	})
	mustStart(t, k, lone)
	m.Run(time.Second)
	if !errors.Is(sendErr, ErrInvalidCap) {
		t.Fatalf("err = %v, want ErrInvalidCap", sendErr)
	}
	if m.Obs().Metrics().Counter("sel4_cap_faults_total").Value() == 0 {
		t.Fatal("invalid-cap counter not incremented")
	}
}

func TestRightsEnforced(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	var sendErr, recvErr error
	readOnly := k.CreateThread("reader", 7, func(api *API) {
		sendErr = api.Send(1, Msg{}) // read-only cap: send must fail
	})
	writeOnly := k.CreateThread("writer", 7, func(api *API) {
		_, recvErr = api.NBRecv(1) // write-only cap: recv must fail
	})
	mustInstall(t, k, readOnly, 1, EndpointCap(ep, CapRead, 0))
	mustInstall(t, k, writeOnly, 1, EndpointCap(ep, CapWrite, 0))
	mustStart(t, k, readOnly)
	mustStart(t, k, writeOnly)
	m.Run(time.Second)
	if !errors.Is(sendErr, ErrNoRights) {
		t.Fatalf("send err = %v, want ErrNoRights", sendErr)
	}
	if !errors.Is(recvErr, ErrNoRights) {
		t.Fatalf("recv err = %v, want ErrNoRights", recvErr)
	}
}

func TestCallReplyRPC(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("rpc")
	var reply Msg
	var callErr error
	server := k.CreateThread("server", 7, func(api *API) {
		res, err := api.Recv(1)
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		out := Msg{Label: res.Msg.Label + 1}
		out.Words[0] = res.Msg.Words[0] * 2
		if err := api.Reply(out); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	client := k.CreateThread("client", 7, func(api *API) {
		msg := Msg{Label: 10}
		msg.Words[0] = 21
		reply, callErr = api.Call(1, msg)
	})
	mustInstall(t, k, server, 1, EndpointCap(ep, CapRead, 0))
	mustInstall(t, k, client, 1, EndpointCap(ep, RightsRWG, 5))
	mustStart(t, k, server)
	mustStart(t, k, client)
	m.Run(time.Second)
	if callErr != nil {
		t.Fatalf("call: %v", callErr)
	}
	if reply.Label != 11 || reply.Words[0] != 42 {
		t.Fatalf("reply = %+v", reply)
	}
	reg := m.Obs().Metrics()
	if calls, replies := reg.Counter("sel4_ipc_call_total").Value(), reg.Counter("sel4_ipc_reply_total").Value(); calls != 1 || replies != 1 {
		t.Fatalf("calls %d, replies %d", calls, replies)
	}
}

func TestCallRequiresGrant(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("rpc")
	var callErr error
	client := k.CreateThread("client", 7, func(api *API) {
		_, callErr = api.Call(1, Msg{})
	})
	mustInstall(t, k, client, 1, EndpointCap(ep, RightsRW, 0)) // no grant
	mustStart(t, k, client)
	m.Run(time.Second)
	if !errors.Is(callErr, ErrNoRights) {
		t.Fatalf("call err = %v, want ErrNoRights without grant", callErr)
	}
}

func TestReplyWithoutPendingCapFails(t *testing.T) {
	m, k := newBoard(t)
	var replyErr error
	lone := k.CreateThread("lone", 7, func(api *API) {
		replyErr = api.Reply(Msg{})
	})
	mustStart(t, k, lone)
	m.Run(time.Second)
	if !errors.Is(replyErr, ErrNoReplyCap) {
		t.Fatalf("err = %v, want ErrNoReplyCap", replyErr)
	}
}

func TestCallAbortedWhenServerDies(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("rpc")
	var callErr error
	server := k.CreateThread("server", 7, func(api *API) {
		if _, err := api.Recv(1); err != nil {
			return
		}
		panic("server crashes before replying")
	})
	client := k.CreateThread("client", 7, func(api *API) {
		_, callErr = api.Call(1, Msg{Label: 1})
	})
	mustInstall(t, k, server, 1, EndpointCap(ep, CapRead, 0))
	mustInstall(t, k, client, 1, EndpointCap(ep, RightsRWG, 0))
	mustStart(t, k, server)
	mustStart(t, k, client)
	m.Run(time.Second)
	if !errors.Is(callErr, ErrCallAborted) {
		t.Fatalf("call err = %v, want ErrCallAborted", callErr)
	}
}

func TestNBSendDropsWithoutReceiver(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	var err1 error
	sender := k.CreateThread("sender", 7, func(api *API) {
		err1 = api.NBSend(1, Msg{Label: 1})
	})
	mustInstall(t, k, sender, 1, EndpointCap(ep, CapWrite, 0))
	mustStart(t, k, sender)
	res := m.Run(time.Second)
	if err1 != nil {
		t.Fatalf("NBSend err = %v, want silent drop", err1)
	}
	if res.Reason != machine.StopAllExited {
		t.Fatalf("run = %v, want all-exited (sender must not block)", res.Reason)
	}
}

func TestCapTransferRequiresGrantAndMovesCap(t *testing.T) {
	m, k := newBoard(t)
	chanEP := k.CreateEndpoint("chan")
	secretEP := k.CreateEndpoint("secret")

	var res RecvResult
	var recvErr error
	var noGrantErr error
	receiver := k.CreateThread("receiver", 7, func(api *API) {
		res, recvErr = api.Recv(1)
	})
	sender := k.CreateThread("sender", 7, func(api *API) {
		slot := CPtr(2)
		// First attempt without grant must fail.
		noGrantErr = api.Send(3, Msg{TransferCap: &slot})
		// Second attempt with grant succeeds.
		if err := api.Send(1, Msg{Label: 8, TransferCap: &slot}); err != nil {
			t.Errorf("granted send: %v", err)
		}
	})
	mustInstall(t, k, receiver, 1, EndpointCap(chanEP, CapRead, 0))
	mustInstall(t, k, sender, 1, EndpointCap(chanEP, CapWrite|CapGrant, 0))
	mustInstall(t, k, sender, 2, EndpointCap(secretEP, RightsRW, 0))
	mustInstall(t, k, sender, 3, EndpointCap(chanEP, CapWrite, 0)) // no grant
	mustStart(t, k, receiver)
	mustStart(t, k, sender)
	m.Run(time.Second)

	if !errors.Is(noGrantErr, ErrNoRights) {
		t.Fatalf("no-grant transfer err = %v, want ErrNoRights", noGrantErr)
	}
	if recvErr != nil {
		t.Fatalf("recv: %v", recvErr)
	}
	if res.CapSlot == nil {
		t.Fatal("no capability arrived")
	}
	caps, err := k.CapsOf(receiver)
	if err != nil {
		t.Fatal(err)
	}
	got := caps[*res.CapSlot]
	if got.Kind != KindEndpoint || got.Object != secretEP {
		t.Fatalf("transferred cap = %v, want endpoint %d", got, secretEP)
	}
}

func TestAttackerNeverGainsCaps(t *testing.T) {
	// The paper's monotonicity argument: an untrusted thread that can only
	// send capabilities away to trusted threads never gains new ones.
	m, k := newBoard(t)
	rpcEP := k.CreateEndpoint("rpc")

	trusted := k.CreateThread("trusted", 7, func(api *API) {
		for {
			if _, err := api.Recv(1); err != nil {
				return
			}
			api.Reply(Msg{Label: 0}) // never transfers a cap back
		}
	})
	var before, after int
	attacker := k.CreateThread("attacker", 7, func(api *API) {
		for i := 0; i < 20; i++ {
			if _, err := api.Call(1, Msg{Label: uint64(i)}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	mustInstall(t, k, trusted, 1, EndpointCap(rpcEP, CapRead, 0))
	mustInstall(t, k, attacker, 1, EndpointCap(rpcEP, RightsRWG, 104))
	before, _ = k.CapCount(attacker)
	mustStart(t, k, trusted)
	mustStart(t, k, attacker)
	m.Run(time.Second)
	after, _ = k.CapCount(attacker)
	if after > before {
		t.Fatalf("attacker gained capabilities: %d -> %d", before, after)
	}
}

func TestBruteForceEnumerationFindsOnlyGrantedCaps(t *testing.T) {
	// Section IV-D.3: "a simple brute-forcing program which attempts to
	// enumerate all the seL4 capability slots ... was unsuccessful in
	// finding any additional capabilities."
	m, k := newBoard(t)
	rpcEP := k.CreateEndpoint("rpc")
	victim := k.CreateThread("victim", 7, func(api *API) {
		api.Sleep(time.Hour)
	})
	_ = victim

	usable := 0
	attacker := k.CreateThread("attacker", 7, func(api *API) {
		for slot := CPtr(0); slot < CSpaceSize; slot++ {
			if err := api.NBSend(slot, Msg{Label: 1}); err == nil {
				usable++
			}
			if err := api.TCBSuspend(slot); err == nil {
				usable++ // would be catastrophic
			}
		}
	})
	mustInstall(t, k, attacker, 7, EndpointCap(rpcEP, RightsRWG, 104))
	mustStart(t, k, victim)
	mustStart(t, k, attacker)
	m.Run(time.Minute)
	if usable != 1 {
		t.Fatalf("attacker found %d usable slots, want exactly its 1 endpoint", usable)
	}
	reg := m.Obs().Metrics()
	if n := reg.Counter("sel4_cap_faults_total").Value(); n < 2*CSpaceSize-3 {
		t.Fatalf("sel4_cap_faults_total = %d, want near %d", n, 2*CSpaceSize)
	}
	if reg.Counter("sel4_suspends_total").Value() != 0 {
		t.Fatal("brute force managed a suspend")
	}
}

func TestTCBSuspendWithCapWorks(t *testing.T) {
	m, k := newBoard(t)
	victim := k.CreateThread("victim", 7, func(api *API) {
		api.Sleep(time.Hour)
	})
	var susErr error
	killer := k.CreateThread("killer", 7, func(api *API) {
		susErr = api.TCBSuspend(4)
	})
	mustInstall(t, k, killer, 4, TCBCap(victim, CapWrite))
	mustStart(t, k, victim)
	mustStart(t, k, killer)
	m.Run(time.Second)
	if susErr != nil {
		t.Fatalf("suspend: %v", susErr)
	}
	if k.ThreadAlive(victim) {
		t.Fatal("victim survived a legitimate suspend")
	}
}

func TestCapMintNarrowsOnly(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	var caps []Capability
	thread := k.CreateThread("minter", 7, func(api *API) {
		if err := api.CapMint(1, 2, 77, CapRead); err != nil {
			t.Errorf("mint: %v", err)
		}
		// Attempt to widen: mint from the read-only copy requesting rwg.
		if err := api.CapMint(2, 3, 0, RightsRWG); err != nil {
			t.Errorf("mint widen attempt: %v", err)
		}
	})
	mustInstall(t, k, thread, 1, EndpointCap(ep, RightsRW, 0))
	mustStart(t, k, thread)
	m.Run(time.Second)
	caps, _ = k.CapsOf(thread)
	if caps[2].Rights != CapRead || caps[2].Badge != 77 {
		t.Fatalf("minted cap = %v, want r-- badge 77", caps[2])
	}
	if caps[3].Rights != CapRead {
		t.Fatalf("widened cap = %v; rights must never widen", caps[3])
	}
}

func TestCapDeleteAndCopy(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	thread := k.CreateThread("worker", 7, func(api *API) {
		if err := api.CapCopy(1, 5); err != nil {
			t.Errorf("copy: %v", err)
		}
		if err := api.CapDelete(1); err != nil {
			t.Errorf("delete: %v", err)
		}
		if err := api.CapCopy(1, 6); !errors.Is(err, ErrInvalidCap) {
			t.Errorf("copy from deleted = %v, want ErrInvalidCap", err)
		}
	})
	mustInstall(t, k, thread, 1, EndpointCap(ep, RightsRW, 0))
	mustStart(t, k, thread)
	m.Run(time.Second)
	// The failed copy is a capability fault like any failed lookup: one
	// event and one count.
	faults := 0
	for _, e := range m.Obs().Events().Events() {
		if e.Kind == obs.EventCapFault && e.Src == "worker" {
			faults++
		}
	}
	if n := m.Obs().Metrics().Counter("sel4_cap_faults_total").Value(); faults != 1 || n != 1 {
		t.Errorf("copy from deleted booked %d cap-fault events and %d sel4_cap_faults_total, want 1 and 1", faults, n)
	}
	caps, _ := k.CapsOf(thread)
	if caps[1].Kind != 0 || caps[5].Kind != KindEndpoint {
		t.Fatalf("cspace after ops: slot1=%v slot5=%v", caps[1], caps[5])
	}
}

func TestDeviceCapability(t *testing.T) {
	m := machine.New(machine.Config{})
	plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
	k := NewKernel(m, Config{})
	t.Cleanup(m.Shutdown)

	sensorDev := k.CreateDevice(plant.DevTempSensor)
	var temp float64
	var readErr, deniedErr error
	driver := k.CreateThread("driver", 7, func(api *API) {
		raw, err := api.DevRead(1, plant.RegTempMilliC)
		readErr = err
		temp = plant.DecodeTemp(raw)
		deniedErr = api.DevWrite(1, plant.RegTempMilliC, 0) // read-only cap
	})
	mustInstall(t, k, driver, 1, DeviceCap(sensorDev, CapRead))
	mustStart(t, k, driver)
	m.Run(time.Second)
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if temp < 17 || temp > 19 {
		t.Fatalf("temp = %v, want ~18", temp)
	}
	if !errors.Is(deniedErr, ErrNoRights) {
		t.Fatalf("write err = %v, want ErrNoRights", deniedErr)
	}
}

// TestNetPortCapability: listening needs a net-port capability in the slot
// named. A thread with an empty slot is refused; the echo exchange of a
// thread that holds one is TestSocketConformance's sel4/echo case.
func TestNetPortCapability(t *testing.T) {
	m := machine.New(machine.Config{})
	k := NewKernel(m, Config{Net: vnet.NewStack()})
	t.Cleanup(m.Shutdown)

	k.CreateNetPort(8080)
	var nocapErr error
	intruder := k.CreateThread("intruder", 7, func(api *API) {
		_, nocapErr = api.NetListen(1) // empty slot
	})
	mustStart(t, k, intruder)
	m.Run(10 * time.Millisecond)
	if !errors.Is(nocapErr, ErrInvalidCap) {
		t.Fatalf("intruder err = %v, want ErrInvalidCap", nocapErr)
	}
}

func TestRightsString(t *testing.T) {
	if RightsRWG.String() != "rwg" || CapRead.String() != "r--" || Rights(0).String() != "---" {
		t.Fatalf("rights strings: %v %v %v", RightsRWG, CapRead, Rights(0))
	}
}

func TestCapabilityString(t *testing.T) {
	c := EndpointCap(3, RightsRW, 7)
	if c.String() != "ep#3(rw-,badge=7)" {
		t.Fatalf("String = %q", c.String())
	}
	if (Capability{}).String() != "null" {
		t.Fatal("null cap string")
	}
}

// TestTransferPastCSpaceMovesNothing: a granted send whose transfer slot
// lies past the architectural CSpace is treated like one naming an empty
// slot. The message is delivered, no capability moves, and neither thread
// faults.
func TestTransferPastCSpaceMovesNothing(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	var res RecvResult
	var recvErr, sendErr error
	receiver := k.CreateThread("receiver", 7, func(api *API) {
		res, recvErr = api.Recv(1)
	})
	sender := k.CreateThread("sender", 7, func(api *API) {
		slot := CPtr(1000)
		sendErr = api.Send(1, Msg{Label: 4, TransferCap: &slot})
	})
	mustInstall(t, k, receiver, 1, EndpointCap(ep, CapRead, 0))
	mustInstall(t, k, sender, 1, EndpointCap(ep, CapWrite|CapGrant, 0))
	mustStart(t, k, receiver)
	mustStart(t, k, sender)
	if r := m.Run(time.Second); r.Reason != machine.StopAllExited {
		t.Fatalf("run = %v, want all-exited", r.Reason)
	}
	if sendErr != nil || recvErr != nil {
		t.Fatalf("send %v, recv %v", sendErr, recvErr)
	}
	if res.Msg.Label != 4 || res.CapSlot != nil {
		t.Fatalf("received label %d cap slot %v, want label 4 and no capability", res.Msg.Label, res.CapSlot)
	}
	if faults := m.Trace().Grep("FAULT"); len(faults) != 0 {
		t.Fatalf("a thread faulted: %v", faults)
	}
	if n, _ := k.CapCount(receiver); n != 1 {
		t.Fatalf("receiver holds %d capabilities, want its 1", n)
	}
}

// TestCSpaceSizedByImage: a thread's CSpace is as long as its highest
// installed slot, and grows only when a copy, mint or transfer writes past
// its end; CapsOf still answers every architectural slot.
func TestCSpaceSizedByImage(t *testing.T) {
	m, k := newBoard(t)
	ep := k.CreateEndpoint("chan")
	receiver := k.CreateThread("receiver", 7, func(api *API) {
		if _, err := api.Recv(1); err != nil {
			t.Errorf("recv: %v", err)
		}
	})
	sender := k.CreateThread("sender", 7, func(api *API) {
		if err := api.CapCopy(1, 200); err != nil {
			t.Errorf("copy: %v", err)
		}
		slot := CPtr(200)
		if err := api.Send(1, Msg{TransferCap: &slot}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := k.InstallCaps(receiver, []SlotCap{{0, EndpointCap(ep, CapRead, 0)}, {1, EndpointCap(ep, CapRead, 0)}}); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallCaps(sender, []SlotCap{{1, EndpointCap(ep, CapWrite|CapGrant, 0)}, {40, DeviceCap(ep, CapRead)}}); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallCaps(sender, []SlotCap{{CSpaceSize, EndpointCap(ep, CapWrite, 0)}}); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("install past the CSpace = %v, want ErrBadSlot", err)
	}
	if n, s := len(k.tcbs[receiver].cspace), len(k.tcbs[sender].cspace); n != 2 || s != 41 {
		t.Fatalf("booted CSpaces hold %d and %d slots, want 2 and 41", n, s)
	}
	mustStart(t, k, receiver)
	mustStart(t, k, sender)
	m.Run(time.Second)
	if n, s := len(k.tcbs[receiver].cspace), len(k.tcbs[sender].cspace); n != 3 || s != 201 {
		t.Fatalf("CSpaces after a transfer and a copy hold %d and %d slots, want 3 and 201", n, s)
	}
	caps, err := k.CapsOf(receiver)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != CSpaceSize || caps[2].Object != ep || !caps[CSpaceSize-1].IsNull() {
		t.Fatalf("CapsOf = %d slots, slot 2 %v", len(caps), caps[2])
	}
}

// TestRightsFaultNamesObject: a rights fault names the object it was
// refused, whatever its kind: a device by its bus name, as MINIX and Linux
// name it, a notification by its name and a network port by its number.
func TestRightsFaultNamesObject(t *testing.T) {
	m := machine.New(machine.Config{})
	plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
	k := NewKernel(m, Config{Net: vnet.NewStack()})
	t.Cleanup(m.Shutdown)
	heater := k.CreateDevice(plant.DevHeater)
	bell := k.CreateNotification("bell")
	port := k.CreateNetPort(8080)
	looper := k.CreateThread("looper", 7, func(api *API) {
		api.DevWrite(1, plant.RegActuate, 1)
		api.Signal(2)
		api.NetListen(3)
	})
	mustInstall(t, k, looper, 1, DeviceCap(heater, CapRead))
	mustInstall(t, k, looper, 2, NotificationCap(bell, CapRead, 0))
	mustInstall(t, k, looper, 3, NetPortCap(port, CapWrite))
	mustStart(t, k, looper)
	m.Run(time.Second)
	var got []string
	for _, e := range m.Obs().Events().Events() {
		got = append(got, e.Dst)
	}
	if want := []string{"heater", "bell", "port-8080"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rights faults name %q, want %q", got, want)
	}
}
