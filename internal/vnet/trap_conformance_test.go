package vnet_test

import (
	"errors"
	"testing"
	"time"

	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/sel4"
)

// This file checks that the three kernels agree on the process traps: the
// console and the device registers. The paper's platforms differ in who
// may reach a device, not in what a register read or write does once the
// kernel's access check has passed.

// devProcess is the device and console surface a process sees on every
// kernel.
type devProcess interface {
	DevRead(dev machine.DeviceID, reg uint32) (uint32, error)
	DevWrite(dev machine.DeviceID, reg uint32, value uint32) error
	Trace(tag, text string)
}

// The board's two devices: every process may reach the sensor and none
// the heater.
const (
	granted machine.DeviceID = "sensor"
	refused machine.DeviceID = "heater"
)

// devKernel boots one kernel on a fresh board with both devices attached
// and starts one process, p0, that holds what reaches the sensor: a MINIX
// device privilege, an seL4 device capability, or a Linux /dev node it
// owns. The heater's node on Linux is root's.
type devKernel struct {
	name string
	boot func(t *testing.T, body func(devProcess)) *machine.Machine
	// refuse reads and writes the heater through what the process lacks,
	// and readErr and writeErr are the kernel's errors for the two.
	refuse            func(p devProcess) (readErr, writeErr error)
	readErr, writeErr error
	// events is the number of security events the two refusals book.
	events int64
}

var devKernels = []devKernel{
	{
		name: "minix", boot: bootMinixDevices, refuse: refuseByID,
		readErr: minix.ErrNoPrivilege, writeErr: minix.ErrNoPrivilege,
		// MINIX books a kernel-privilege denial, where seL4 books a
		// capability fault and Linux a DAC denial.
		events: 2,
	},
	{
		name: "sel4", boot: bootCAmkESDevices, refuse: refuseByCap,
		readErr: sel4.ErrInvalidCap, writeErr: sel4.ErrNoRights, events: 2,
	},
	{
		name: "linux", boot: bootLinuxDevices, refuse: refuseByID,
		readErr: linuxsim.ErrPerm, writeErr: linuxsim.ErrPerm, events: 2,
	},
}

// registers is a device of four plain registers.
type registers [4]uint32

func (r *registers) ReadReg(reg uint32) uint32     { return r[reg] }
func (r *registers) WriteReg(reg uint32, v uint32) { r[reg] = v }

// newDeviceBoard returns a fresh board with both devices attached.
func newDeviceBoard(t *testing.T) *machine.Machine {
	m := newBoard(t)
	m.Bus().Attach(granted, &registers{})
	m.Bus().Attach(refused, &registers{7, 7, 7, 7})
	return m
}

func bootMinixDevices(t *testing.T, body func(devProcess)) *machine.Machine {
	m := newDeviceBoard(t)
	k, err := minix.Boot(m, core.NewPolicy().Seal(), minix.Config{DisableACM: true})
	if err != nil {
		t.Fatalf("minix.Boot: %v", err)
	}
	k.RegisterImage(minix.Image{Name: procName(0), Priority: 7, Devices: []machine.DeviceID{granted}, Body: func(api *minix.API) { body(api) }})
	if _, err := k.SpawnImage(procName(0), core.NoACID); err != nil {
		t.Fatalf("minix spawn: %v", err)
	}
	return m
}

func bootCAmkESDevices(t *testing.T, body func(devProcess)) *machine.Machine {
	m := newDeviceBoard(t)
	asm := &camkes.Assembly{Components: []*camkes.Component{{
		Name:     procName(0),
		Priority: 7,
		Devices:  []machine.DeviceID{granted, refused},
		Run:      func(rt *camkes.Runtime) { body(rt) },
	}}}
	img, err := camkes.Compile(asm)
	if err != nil {
		t.Fatalf("camkes.Compile: %v", err)
	}
	if _, err := camkes.Build(m, img, asm, camkes.BuildConfig{}); err != nil {
		t.Fatalf("camkes.Build: %v", err)
	}
	return m
}

func bootLinuxDevices(t *testing.T, body func(devProcess)) *machine.Machine {
	m := newDeviceBoard(t)
	k := linuxsim.Boot(m, linuxsim.Config{})
	k.RegisterDeviceFile(granted, 1000, 1000, 0o600)
	k.RegisterDeviceFile(refused, 0, 0, 0o600)
	k.RegisterImage(linuxsim.Image{Name: procName(0), Priority: 7, UID: 1000, GID: 1000, Body: func(api *linuxsim.API) { body(api) }})
	if _, err := k.SpawnImage(procName(0)); err != nil {
		t.Fatalf("linux spawn: %v", err)
	}
	return m
}

// refuseByID names the heater by its ID, which the process may not reach.
func refuseByID(p devProcess) (error, error) {
	_, rerr := p.DevRead(refused, 1)
	return rerr, p.DevWrite(refused, 1, 42)
}

// refuseByCap reads through an empty slot and writes through a read-only
// copy of the heater's capability.
func refuseByCap(p devProcess) (error, error) {
	api := p.(*camkes.Runtime).API()
	const empty, readOnly sel4.CPtr = 30, 31
	heater := camkes.SlotDeviceBase + 1
	if err := api.CapMint(heater, readOnly, 0, sel4.CapRead); err != nil {
		return err, err
	}
	_, rerr := api.DevRead(empty, 1)
	return rerr, api.DevWrite(readOnly, 1, 42)
}

func TestProcTrapConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, k devKernel)
	}{
		{"granted read and write reach the register", testGrantedDevice},
		{"refused read and write leave the device alone", testRefusedDevice},
		{"refusals book the kernel's security events", testRefusalEvents},
		{"trace line lands verbatim", testTraceLine},
	}
	for _, k := range devKernels {
		t.Run(k.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(t, k) })
			}
		})
	}
}

// testGrantedDevice writes a sensor register and reads it back.
func testGrantedDevice(t *testing.T, k devKernel) {
	var got uint32
	var rerr, werr error
	m := k.boot(t, func(p devProcess) {
		werr = p.DevWrite(granted, 2, 0xBEEF)
		got, rerr = p.DevRead(granted, 2)
	})
	m.Run(time.Second)
	if werr != nil || rerr != nil || got != 0xBEEF {
		t.Fatalf("write then read = (%#x, %v, %v), want (0xbeef, nil, nil)", got, werr, rerr)
	}
	if r, w := m.Bus().IOCount(granted); r != 1 || w != 1 {
		t.Fatalf("bus I/O on the sensor = %d reads, %d writes; want 1 and 1", r, w)
	}
}

// testRefusedDevice reads and writes the heater without the access: each
// fails with the kernel's error, and the heater's registers and bus I/O
// counts are unchanged.
func testRefusedDevice(t *testing.T, k devKernel) {
	var rerr, werr error
	m := k.boot(t, func(p devProcess) { rerr, werr = k.refuse(p) })
	m.Run(time.Second)
	if !errors.Is(rerr, k.readErr) || !errors.Is(werr, k.writeErr) {
		t.Fatalf("refused read, write = %v, %v; want %v, %v", rerr, werr, k.readErr, k.writeErr)
	}
	if r, w := m.Bus().IOCount(refused); r != 0 || w != 0 {
		t.Fatalf("bus I/O on the heater = %d reads, %d writes; want none", r, w)
	}
	if v, _ := m.Bus().Read(refused, 1); v != 7 {
		t.Fatalf("heater register = %d, want 7", v)
	}
}

// testRefusalEvents counts the security events the two refusals book: one
// each, on every kernel.
func testRefusalEvents(t *testing.T, k devKernel) {
	var booked int64
	var m *machine.Machine
	m = k.boot(t, func(p devProcess) {
		before := m.Obs().Events().Total()
		k.refuse(p)
		booked = m.Obs().Events().Total() - before
	})
	m.Run(time.Second)
	if booked != k.events {
		t.Fatalf("refusals booked %d security events, want %d", booked, k.events)
	}
}

// testTraceLine writes one console line: it lands under its tag with its
// text, byte for byte.
func testTraceLine(t *testing.T, k devKernel) {
	const tag, text = "conf", "line \x00 with bytes \xff"
	m := k.boot(t, func(p devProcess) { p.Trace(tag, text) })
	m.Run(time.Second)
	var got []machine.TraceLine
	for _, l := range m.Trace().Lines() {
		if l.Tag == tag {
			got = append(got, l)
		}
	}
	if len(got) != 1 || got[0].Text != text {
		t.Fatalf("console lines under %q = %q, want one with text %q", tag, got, text)
	}
}
