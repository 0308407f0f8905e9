package minix

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mkbas/internal/core"
	"mkbas/internal/machine"
)

// TestPMNotWedgedByNonReceivingClient is the regression test for the
// asymmetric-trust fix: a malicious client that fires a request at PM and
// never receives the reply must not block PM for everyone else.
func TestPMNotWedgedByNonReceivingClient(t *testing.T) {
	p := core.NewPolicy()
	p.Syscalls.Grant(acidA, core.SysFork)
	p.Seal()
	m, k := testBoard(t, p, Config{})
	k.RegisterImage(Image{Name: "drone", Priority: 9, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	k.RegisterImage(Image{Name: "rude", Priority: 7, Body: func(api *API) {
		pm, _ := api.Lookup(PMName)
		msg := NewMessage(TypePMKill)
		msg.PutU32(0, uint32(api.Self()))
		// Plain send, never receive the reply.
		_ = api.Send(pm, msg)
		api.Sleep(time.Hour)
	}})
	var forkErr error
	k.RegisterImage(Image{Name: "polite", Priority: 8, Body: func(api *API) {
		api.Sleep(10 * time.Millisecond) // let the rude client hit PM first
		_, forkErr = api.Fork2("drone", 0)
	}})
	spawnOrFatal(t, k, "rude", acidB)
	spawnOrFatal(t, k, "polite", acidA)
	m.Run(time.Second)
	if forkErr != nil {
		t.Fatalf("PM wedged by rude client: polite fork2 = %v", forkErr)
	}
}

func TestNotifyGovernedByACM(t *testing.T) {
	// Only the ack bit (type 0) authorizes notifications. testPolicy grants
	// A->B ack; C has no cells at all.
	m, k := testBoard(t, testPolicy(), Config{})
	var okErr, denyErr error
	k.RegisterImage(Image{Name: "b", Priority: 8, Body: func(api *API) {
		api.Receive(EndpointAny)
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		okErr = api.Notify(dst)
	}})
	k.RegisterImage(Image{Name: "c", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		denyErr = api.Notify(dst)
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	spawnOrFatal(t, k, "c", acidC)
	m.Run(time.Second)
	if okErr != nil {
		t.Fatalf("authorized notify failed: %v", okErr)
	}
	if !errors.Is(denyErr, core.ErrDenied) {
		t.Fatalf("unauthorized notify = %v, want denial", denyErr)
	}
}

func TestVanillaKernelPermitsSpoofAtIPCLayer(t *testing.T) {
	// Kernel-level counterpart of the attack-package ablation: without the
	// ACM the kernel happily delivers a fake sensor message, and only the
	// kernel-stamped Source would reveal the forgery to a careful receiver.
	m, k := testBoard(t, core.NewPolicy().Seal(), Config{DisableACM: true})
	var got Message
	k.RegisterImage(Image{Name: "ctrl", Priority: 8, Body: func(api *API) {
		got, _ = api.Receive(EndpointAny)
	}})
	var attackerEP Endpoint
	k.RegisterImage(Image{Name: "attacker", Priority: 7, Body: func(api *API) {
		attackerEP = api.Self()
		dst, _ := api.Lookup("ctrl")
		fake := NewMessage(int32(core.MsgSensorData))
		fake.PutF64(0, 99)
		api.Send(dst, fake)
	}})
	spawnOrFatal(t, k, "ctrl", acidA)
	spawnOrFatal(t, k, "attacker", acidB)
	m.Run(time.Second)
	if got.F64(0) != 99 {
		t.Fatal("vanilla kernel did not deliver the spoof")
	}
	if got.Source != attackerEP {
		t.Fatalf("source = %v, want kernel-stamped attacker endpoint %v", got.Source, attackerEP)
	}
}

func TestSendRecToRestartedServerGetsError(t *testing.T) {
	// A SendRec blocked on a server that dies mid-call errors out rather
	// than hanging forever.
	m, k := testBoard(t, testPolicy(), Config{})
	var rpcErr error
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		_, err := api.Receive(EndpointAny)
		if err != nil {
			return
		}
		api.Exit() // die without replying
	}})
	k.RegisterImage(Image{Name: "a", Priority: 8, Body: func(api *API) {
		api.Sleep(time.Millisecond)
		dst, _ := api.Lookup("b")
		_, rpcErr = api.SendRec(dst, NewMessage(1))
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	if !errors.Is(rpcErr, ErrDeadSrcDst) {
		t.Fatalf("rpc err = %v, want ErrDeadSrcDst", rpcErr)
	}
}

func TestReceiveSpecificFromSystemServer(t *testing.T) {
	// Receiving specifically from EndpointSystem must be expressible (RS
	// uses ANY, but the filter must not reject the system endpoint).
	m, k := testBoard(t, testPolicy(), Config{})
	done := false
	k.RegisterImage(Image{Name: "w", Priority: 7, Body: func(api *API) {
		// There is nothing to receive; just verify the call blocks rather
		// than erroring, by timing out via a short sleep race in a sibling.
		_, err := api.Receive(EndpointSystem)
		_ = err
		done = true
	}})
	spawnOrFatal(t, k, "w", acidA)
	res := m.Run(100 * time.Millisecond)
	if done {
		t.Fatal("receive from system returned without a message")
	}
	if res.Reason != machine.StopIdle && res.Reason != machine.StopDeadline {
		t.Fatalf("unexpected stop: %v", res.Reason)
	}
}

func TestMailboxFIFOAcrossSenders(t *testing.T) {
	m, k := testBoard(t, multiPolicy(), Config{})
	var order []uint32
	k.RegisterImage(Image{Name: "sink", Priority: 8, Body: func(api *API) {
		api.Sleep(20 * time.Millisecond)
		for i := 0; i < 4; i++ {
			msg, err := api.Receive(EndpointAny)
			if err == nil {
				order = append(order, msg.U32(0))
			}
		}
	}})
	mkSender := func(name string, tag uint32, delay time.Duration) {
		k.RegisterImage(Image{Name: name, Priority: 7, Body: func(api *API) {
			api.Sleep(delay)
			dst, _ := api.Lookup("sink")
			msg := NewMessage(1)
			msg.PutU32(0, tag)
			api.SendNB(dst, msg)
			msg.PutU32(0, tag+100)
			api.SendNB(dst, msg)
		}})
	}
	mkSender("s1", 1, time.Millisecond)
	mkSender("s2", 2, 2*time.Millisecond)
	spawnOrFatal(t, k, "sink", acidA)
	spawnOrFatal(t, k, "s1", acidB)
	spawnOrFatal(t, k, "s2", acidC)
	m.Run(time.Second)
	want := []uint32{1, 101, 2, 102}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (arrival FIFO)", order, want)
		}
	}
}

// multiPolicy allows B->A and C->A type 1.
func multiPolicy() *core.Policy {
	p := core.NewPolicy()
	p.IPC.Allow(acidB, acidA, 0, 1)
	p.IPC.Allow(acidC, acidA, 0, 1)
	return p.Seal()
}

func TestProcessTableExhaustion(t *testing.T) {
	p := core.NewPolicy()
	p.Syscalls.Grant(acidA, core.SysFork)
	p.Seal()
	m, k := testBoard(t, p, Config{})
	k.RegisterImage(Image{Name: "drone", Priority: 9, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	var firstErr error
	granted := 0
	k.RegisterImage(Image{Name: "spawner", Priority: 7, Body: func(api *API) {
		for i := 0; i < maxSlots+10; i++ {
			if _, err := api.Fork2("drone", 0); err != nil {
				firstErr = err
				return
			}
			granted++
		}
	}})
	spawnOrFatal(t, k, "spawner", acidA)
	m.Run(10 * time.Minute)
	if !errors.Is(firstErr, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", firstErr)
	}
	// Slots: table minus PM, RS, and the spawner itself.
	if granted != maxSlots-3 {
		t.Fatalf("granted = %d, want %d", granted, maxSlots-3)
	}
}

func TestStatsCounters(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(Image{Name: "b", Priority: 7, Body: func(api *API) {
		for {
			if _, err := api.Receive(EndpointAny); err != nil {
				return
			}
		}
	}})
	k.RegisterImage(Image{Name: "a", Priority: 7, Body: func(api *API) {
		dst, _ := api.Lookup("b")
		api.Send(dst, NewMessage(1))
		api.Send(dst, NewMessage(9)) // denied
	}})
	spawnOrFatal(t, k, "b", acidB)
	spawnOrFatal(t, k, "a", acidA)
	m.Run(time.Second)
	reg := m.Obs().Metrics()
	delivered := reg.Counter("minix_ipc_delivered_total").Value()
	denied := reg.Counter("minix_ipc_denied_total").Value()
	spawns := reg.Counter("machine_spawns_total").Value()
	if delivered == 0 || denied != 1 || spawns < 4 {
		t.Fatalf("delivered %d, denied %d, spawns %d", delivered, denied, spawns)
	}
}

// TestProcessTableReusesLowestFreeSlot pins the slot allocator: with the
// table full, freeing slots out of order must hand them back lowest first,
// each under a bumped generation, exactly as a scan from slot 0 would, and
// a full table must still refuse with ErrTableFull.
func TestProcessTableReusesLowestFreeSlot(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(Image{Name: "drone", Priority: 9, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	for {
		if _, err := k.SpawnImage("drone", acidA); err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("filling the table: %v", err)
			}
			break
		}
	}
	if _, err := k.SpawnImage("drone", acidA); !errors.Is(err, ErrTableFull) {
		t.Fatalf("spawn into a full table = %v, want ErrTableFull", err)
	}
	m.Run(time.Second)

	free := func(slot int) {
		t.Helper()
		if err := m.Engine().Kill(k.slots[slot].PID); err != nil {
			t.Fatalf("freeing slot %d: %v", slot, err)
		}
	}
	want := func(slot, gen int) {
		t.Helper()
		ep, err := k.SpawnImage("drone", acidA)
		if err != nil {
			t.Fatalf("spawn: %v, want slot %d", err, slot)
		}
		if ep != EndpointAt(slot, gen) {
			t.Fatalf("spawn took %v, want %v", ep, EndpointAt(slot, gen))
		}
	}
	free(100)
	free(50)
	want(50, 2)
	free(10)
	want(10, 2)
	want(100, 2)
	if _, err := k.SpawnImage("drone", acidA); !errors.Is(err, ErrTableFull) {
		t.Fatalf("spawn into a refilled table = %v, want ErrTableFull", err)
	}
	free(100)
	want(100, 3)
}

// TestStaleTimersNeverWake pins the token check behind the reused Sleep and
// ReceiveTimeout callbacks. A killed sleeper's pending timer must not wake
// the process that reuses its slot, and a ReceiveTimeout answered early must
// not time out the next ReceiveTimeout when its old deadline passes.
func TestStaleTimersNeverWake(t *testing.T) {
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(Image{Name: "victim", Priority: 8, Body: func(api *API) {
		api.Sleep(time.Second)
		t.Error("killed sleeper woke")
	}})
	var heirEP Endpoint
	var heirWoke machine.Time
	k.RegisterImage(Image{Name: "heir", Priority: 8, Body: func(api *API) {
		heirEP = api.Self()
		api.Sleep(10 * time.Second)
		heirWoke = api.Now()
	}})
	var firstErr, secondErr error
	var secondAt machine.Time
	k.RegisterImage(Image{Name: "waiter", Priority: 8, Body: func(api *API) {
		_, firstErr = api.ReceiveTimeout(EndpointAny, time.Second)
		_, secondErr = api.ReceiveTimeout(EndpointAny, 5*time.Second)
		secondAt = api.Now()
	}})
	k.RegisterImage(Image{Name: "poker", Priority: 8, Body: func(api *API) {
		api.Sleep(100 * time.Millisecond)
		waiter, _ := api.Lookup("waiter")
		_ = api.SendNB(waiter, NewMessage(1))
	}})
	victimEP := spawnOrFatal(t, k, "victim", acidA)
	spawnOrFatal(t, k, "waiter", acidB)
	spawnOrFatal(t, k, "poker", acidA)
	m.Run(500 * time.Millisecond)
	if err := k.CrashProcess("victim"); err != nil {
		t.Fatal(err)
	}
	start := m.Clock().Now()
	spawnOrFatal(t, k, "heir", acidA)
	m.Run(20 * time.Second)

	if heirEP.Slot() != victimEP.Slot() {
		t.Fatalf("heir took slot %d, want the victim's slot %d", heirEP.Slot(), victimEP.Slot())
	}
	if woke := heirWoke.Sub(start); woke < 10*time.Second || woke > 10*time.Second+time.Millisecond {
		t.Fatalf("heir woke %v after spawn, want its own 10s deadline", woke)
	}
	if firstErr != nil {
		t.Fatalf("first ReceiveTimeout = %v, want the poke", firstErr)
	}
	if !errors.Is(secondErr, ErrTimeout) {
		t.Fatalf("second ReceiveTimeout = %v, want ErrTimeout", secondErr)
	}
	if secondAt < machine.Time(5*time.Second) {
		t.Fatalf("second ReceiveTimeout returned at %v, before its own 5s deadline", secondAt)
	}
}

// TestForkChildByteBudget gates the live heap one parked process costs: the
// MINIX fork-bomb cases keep 4,097 of them live at once. A child that never
// opens a device or a socket carries its process entry, the engine's
// process record with its trap frame, and its coroutine; a sleeping child
// also keeps its pending timer. The fork bomb's children sleep between
// refused forks, so the sleeping row is the shape the campaign parks.
//
// The Go runtime never returns a goroutine descriptor (about 440 B) to the
// heap; it keeps it for the next goroutine. The probe first runs and ends
// as many goroutines as it parks children, so their coroutines reuse
// descriptors, as a campaign's later cases do, and the reading does not
// depend on which tests ran before it.
func TestForkChildByteBudget(t *testing.T) {
	for _, row := range []struct {
		name string
		park func(api *API)
	}{
		{"receiving", func(api *API) { api.Receive(EndpointAny) }},
		{"sleeping", func(api *API) { api.Sleep(time.Hour) }},
	} {
		t.Run(row.name, func(t *testing.T) { testForkChildBytes(t, row.park) })
	}
}

func testForkChildBytes(t *testing.T, park func(api *API)) {
	const children, budget = 2000, 1100
	var wg sync.WaitGroup
	release := make(chan struct{})
	for range children {
		wg.Add(1)
		go func() {
			<-release
			wg.Done()
		}()
	}
	close(release)
	wg.Wait()
	m, k := testBoard(t, testPolicy(), Config{})
	k.RegisterImage(Image{Name: "child", Priority: 7, Body: park})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range children {
		spawnOrFatal(t, k, "child", acidA)
	}
	m.Run(time.Second)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := m.Engine().LiveCount(); live != children+2 {
		t.Fatalf("live processes = %d, want %d children plus PM and RS", live, children)
	}
	perChild := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / children
	t.Logf("%d B of live heap per parked child", perChild)
	if perChild > budget {
		t.Fatalf("a parked child costs %d B of live heap, budget %d B", perChild, budget)
	}
	runtime.KeepAlive(k)
}

// TestProcessTableGrowsOnDemand pins the on-demand table against the one
// allocated whole at boot: a fresh board holds a small table, and forking to
// the limit hands out slot after slot at generation 1, refuses at the same
// count, and leaves the table exactly maxSlots long.
func TestProcessTableGrowsOnDemand(t *testing.T) {
	p := core.NewPolicy()
	p.Syscalls.Grant(acidA, core.SysFork)
	p.Seal()
	m, k := testBoard(t, p, Config{})
	if n := cap(k.slots); n >= maxSlots {
		t.Fatalf("booted table holds %d slots, want it grown on demand", n)
	}
	k.RegisterImage(Image{Name: "drone", Priority: 9, Body: func(api *API) {
		api.Sleep(time.Hour)
	}})
	var eps []Endpoint
	var firstErr error
	k.RegisterImage(Image{Name: "spawner", Priority: 7, Body: func(api *API) {
		for i := 0; i < maxSlots+10; i++ {
			ep, err := api.Fork2("drone", 0)
			if err != nil {
				firstErr = err
				return
			}
			eps = append(eps, ep)
		}
	}})
	spawnOrFatal(t, k, "spawner", acidA)
	m.Run(10 * time.Minute)
	if !errors.Is(firstErr, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", firstErr)
	}
	// PM, RS and the spawner hold slots 0-2; the drones take the rest in order.
	if len(eps) != maxSlots-3 {
		t.Fatalf("granted = %d, want %d", len(eps), maxSlots-3)
	}
	for i, ep := range eps {
		if want := EndpointAt(i+3, 1); ep != want {
			t.Fatalf("fork %d got %v, want %v", i, ep, want)
		}
	}
	if len(k.slots) != maxSlots || cap(k.slots) != maxSlots || len(k.gens) != maxSlots {
		t.Fatalf("full table: len %d cap %d gens %d, want %d", len(k.slots), cap(k.slots), len(k.gens), maxSlots)
	}
}
