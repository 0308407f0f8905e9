package sel4

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/plant"
	"mkbas/internal/vnet"
)

var update = flag.Bool("update", false, "rewrite testdata/slots.golden from the current code")

// slotTop is the highest slot of a probing thread's image, as
// camkes.SlotNetBase is the highest slot a scenario thread holds.
const slotTop CPtr = 60

// probeSlots are the slot registers every trap is driven at: the lowest
// slot, the image's highest and the one past it, the last slot of the
// architectural CSpace and the first past it, the largest 32-bit value,
// and the first two register values past it.
var probeSlots = []uint64{0, uint64(slotTop), uint64(slotTop) + 1, CSpaceSize - 1, CSpaceSize, math.MaxUint32, 1 << 32, 1<<32 + 1}

// slotBoard is one fresh board for a slot probe. The endpoint "chan" is
// served by "server", which receives, replies and notes what arrived; the
// endpoint "inbox" holds one message from "feeder"; the notification
// "bell" is rung once by "ringer"; "victim" sleeps; and the heater device
// and network port 8080 back device and net-port capabilities.
type slotBoard struct {
	m                                         *machine.Machine
	k                                         *Kernel
	chanEP, inbox, bell, heater, port, victim ObjID
	got                                       []string
}

func newSlotBoard(t testing.TB) *slotBoard {
	m := machine.New(machine.Config{})
	plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
	k := NewKernel(m, Config{Net: vnet.NewStack()})
	t.Cleanup(m.Shutdown)
	b := &slotBoard{m: m, k: k}
	b.chanEP = k.CreateEndpoint("chan")
	b.inbox = k.CreateEndpoint("inbox")
	b.bell = k.CreateNotification("bell")
	b.heater = k.CreateDevice(plant.DevHeater)
	b.port = k.CreateNetPort(8080)
	b.victim = k.CreateThread("victim", 7, func(api *API) { api.Sleep(time.Hour) })
	server := k.CreateThread("server", 7, func(api *API) {
		for {
			res, err := api.Recv(0)
			if err != nil {
				return
			}
			arrived := "-"
			if res.CapSlot != nil {
				arrived = fmt.Sprint(*res.CapSlot)
			}
			b.got = append(b.got, fmt.Sprintf("label=%d badge=%d cap=%s", res.Msg.Label, res.Badge, arrived))
			api.Reply(Msg{Label: 2})
		}
	})
	feeder := k.CreateThread("feeder", 7, func(api *API) { api.Send(0, Msg{Label: 3}) })
	ringer := k.CreateThread("ringer", 7, func(api *API) { api.Signal(0) })
	for _, install := range []struct {
		tcb ObjID
		cap Capability
	}{
		{server, EndpointCap(b.chanEP, CapRead, 0)},
		{feeder, EndpointCap(b.inbox, CapWrite, 5)},
		{ringer, NotificationCap(b.bell, CapWrite, 1)},
	} {
		if err := k.InstallCap(install.tcb, 0, install.cap); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []ObjID{b.victim, server, feeder, ringer} {
		if err := k.Start(id); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// slotTrap is one trap that takes a slot register: the capability the
// prober's image holds at slot 0 and at slotTop, the trap number, and the
// registers the trap is driven with, the probed slot value among them, as
// the API wrapper of the trap lays them out.
type slotTrap struct {
	name string
	cap  func(b *slotBoard) Capability
	nr   uint32
	regs func(s uint64) []uint64
}

// msgTo lays out a one-word message with label 1 to the endpoint in slot s.
func msgTo(s uint64) []uint64 { return []uint64{s, 1} }

// only puts the slot value in R0.
func only(s uint64) []uint64 { return []uint64{s} }

var slotTraps = []slotTrap{
	{"send", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, CapWrite, 7) }, trapSend, msgTo},
	{"nbsend", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, CapWrite, 7) }, trapNBSend, msgTo},
	{"recv", func(b *slotBoard) Capability { return EndpointCap(b.inbox, CapRead, 0) }, trapRecv, only},
	{"nbrecv", func(b *slotBoard) Capability { return EndpointCap(b.inbox, CapRead, 0) }, trapNBRecv, only},
	{"call", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, CapWrite|CapGrant, 7) }, trapCall, msgTo},
	{"signal", func(b *slotBoard) Capability { return NotificationCap(b.bell, CapWrite, 2) }, trapSignal, only},
	{"wait", func(b *slotBoard) Capability { return NotificationCap(b.bell, CapRead, 0) }, trapWait, only},
	{"poll", func(b *slotBoard) Capability { return NotificationCap(b.bell, CapRead, 0) }, trapPoll, only},
	{"suspend", func(b *slotBoard) Capability { return TCBCap(b.victim, CapWrite) }, trapTCBSuspend, only},
	{"copy-src", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, RightsRW, 0) }, trapCapCopy,
		func(s uint64) []uint64 { return []uint64{s, 5} }},
	{"copy-dst", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, RightsRW, 0) }, trapCapCopy,
		func(s uint64) []uint64 { return []uint64{0, s} }},
	{"mint-src", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, RightsRW, 0) }, trapCapMint,
		func(s uint64) []uint64 { return []uint64{s, 5, 9, uint64(CapRead)} }},
	{"mint-dst", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, RightsRW, 0) }, trapCapMint,
		func(s uint64) []uint64 { return []uint64{0, s, 9, uint64(CapRead)} }},
	{"delete", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, RightsRW, 0) }, trapCapDelete, only},
	{"dev-read", func(b *slotBoard) Capability { return DeviceCap(b.heater, RightsRW) }, trapProc + machine.ProcDevRead,
		func(s uint64) []uint64 { return []uint64{s, uint64(plant.RegActuate)} }},
	{"dev-write", func(b *slotBoard) Capability { return DeviceCap(b.heater, RightsRW) }, trapProc + machine.ProcDevWrite,
		func(s uint64) []uint64 { return []uint64{s, uint64(plant.RegActuate), 1} }},
	{"listen", func(b *slotBoard) Capability { return NetPortCap(b.port, CapRead) }, trapNetListen, only},
	{"transfer", func(b *slotBoard) Capability { return EndpointCap(b.chanEP, CapWrite|CapGrant, 7) }, trapSend,
		func(s uint64) []uint64 { return []uint64{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, s} }},
}

// probeSlot runs one trap at one slot register on a fresh board and
// renders everything it answered and left behind: the error, how the board
// stopped, what the server received, the prober's non-empty slots, the
// security events, the crash lines and the non-zero kernel counters.
func probeSlot(t testing.TB, trap slotTrap, slot uint64) string {
	b := newSlotBoard(t)
	errText := "none (the prober did not return)"
	prober := b.k.CreateThread("prober", 7, func(api *API) {
		copy(api.f.R[:], trap.regs(slot))
		errText = fmt.Sprint(api.ctx.Trap(trap.nr))
	})
	for _, s := range []CPtr{0, slotTop} {
		if err := b.k.InstallCap(prober, s, trap.cap(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.k.Start(prober); err != nil {
		t.Fatal(err)
	}
	res := b.m.Run(time.Second)

	var s strings.Builder
	fmt.Fprintf(&s, "%s@%d: err=%s\n  stop=%v got=%v\n  caps=[", trap.name, slot, errText, res.Reason, b.got)
	caps, err := b.k.CapsOf(prober)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := b.k.CapCount(prober)
	sep := ""
	for i, c := range caps {
		if !c.IsNull() {
			fmt.Fprintf(&s, "%s%d:%v", sep, i, c)
			sep = " "
		}
	}
	fmt.Fprintf(&s, "] count=%d len=%d\n", n, len(caps))
	for _, e := range b.m.Obs().Events().Events() {
		fmt.Fprintf(&s, "  event %v\n", e)
	}
	for _, l := range b.m.Trace().Grep("FAULT") {
		fmt.Fprintf(&s, "  trace %s\n", l.Text)
	}
	reg := b.m.Obs().Metrics()
	for _, c := range reg.Counters() {
		if c.Value != 0 && !strings.HasPrefix(c.Name, "machine_") {
			fmt.Fprintf(&s, "  %s=%d\n", c.Name, c.Value)
		}
	}
	for _, g := range reg.Gauges() {
		if g.Value != 0 && !strings.HasPrefix(g.Name, "machine_") {
			fmt.Fprintf(&s, "  %s=%d\n", g.Name, g.Value)
		}
	}
	return s.String()
}

// TestSlotRegisterConformance drives every trap that takes a slot register
// at the edges of the CSpace and pins each answer, event and counter to
// testdata/slots.golden; run with -update to rewrite it after a deliberate
// change.
func TestSlotRegisterConformance(t *testing.T) {
	var got strings.Builder
	for _, trap := range slotTraps {
		for _, slot := range probeSlots {
			got.WriteString(probeSlot(t, trap, slot))
		}
	}
	path := filepath.Join("testdata", "slots.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("slot conformance differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("slot conformance differs from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}

// fuzzTraps are the trap numbers that read a slot register.
var fuzzTraps = []uint32{
	trapSend, trapNBSend, trapRecv, trapNBRecv, trapCall, trapTCBSuspend,
	trapSignal, trapWait, trapPoll, trapCapCopy, trapCapMint, trapCapDelete,
	trapNetListen, trapProc + machine.ProcDevRead, trapProc + machine.ProcDevWrite,
}

// FuzzCapSlots drives a trap that reads slot registers, with arbitrary
// slot, badge, rights and transfer registers, and then a granted send that
// transfers an arbitrary slot, from a thread holding one capability of each
// kind. Whatever the registers hold, the kernel must answer in the frame:
// no thread may fault.
func FuzzCapSlots(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(5), uint64(0))
	f.Add(uint8(0), uint64(0), uint64(0), uint64(1000))
	f.Add(uint8(9), uint64(60), uint64(255), uint64(CSpaceSize))
	f.Add(uint8(10), uint64(40), uint64(math.MaxUint32), uint64(math.MaxUint64))
	f.Add(uint8(11), uint64(1<<32), uint64(0), uint64(1<<32+60))
	f.Add(uint8(0), uint64(1<<32), uint64(0), uint64(1<<32))
	f.Fuzz(func(t *testing.T, which uint8, r0, r1, xfer uint64) {
		b := newSlotBoard(t)
		nr := fuzzTraps[int(which)%len(fuzzTraps)]
		prober := b.k.CreateThread("prober", 7, func(api *API) {
			api.f.R = [len(api.f.R)]uint64{r0, r1, r1, r0}
			api.f.R[10], api.f.R[11] = 1, xfer
			api.ctx.Trap(nr)
			api.f.R = [len(api.f.R)]uint64{}
			api.f.R[10], api.f.R[11] = 1, xfer
			api.ctx.Trap(trapSend)
		})
		caps := []SlotCap{
			{0, EndpointCap(b.chanEP, RightsRWG, 7)},
			{5, TCBCap(b.victim, CapWrite)},
			{10, NotificationCap(b.bell, RightsRW, 2)},
			{40, DeviceCap(b.heater, RightsRW)},
			{slotTop, NetPortCap(b.port, CapRead)},
		}
		if err := b.k.InstallCaps(prober, caps); err != nil {
			t.Fatal(err)
		}
		if err := b.k.Start(prober); err != nil {
			t.Fatal(err)
		}
		b.m.Run(time.Second)
		if faults := b.m.Trace().Grep("FAULT"); len(faults) != 0 {
			t.Fatalf("trap %d with R0=%d R1=%d transfer=%d: %v", nr, r0, r1, xfer, faults)
		}
	})
}
