package machine

import "time"

// The process traps, as offsets from a kernel's base process trap: every
// kernel lists sleep, trace, device read, device write and exit
// consecutively from its base and runs them through its ProcTraps.
const (
	ProcSleep     uint32 = iota // R0 duration
	ProcTrace                   // S0 tag, S1 text
	ProcDevRead                 // S0 device or R0 the kernel's handle to it, R1 register → R0 value
	ProcDevWrite                // as ProcDevRead, R2 value
	ProcExit                    // does not return
	ProcTrapCount               // the number of process traps
)

// DeviceCheck is a kernel's device access check, the one part of a device
// trap a kernel writes: it names the device the read or write in f, from
// process pid, reaches, or refuses it with the kernel's error.
type DeviceCheck func(pid PID, f *Frame, write bool) (DeviceID, error)

// ProcTraps is one kernel's process traps, written once for every kernel:
// sleep through the kernel's wait layer, the console line, the bus read or
// write behind the kernel's DeviceCheck, and exit. The kernels differ only
// in who may reach a device.
type ProcTraps struct {
	m     *Machine
	waits *Waits
	base  uint32
	check DeviceCheck
}

// NewProcTraps returns the process traps of the kernel on m whose base
// process trap is base.
func NewProcTraps(m *Machine, waits *Waits, base uint32, check DeviceCheck) ProcTraps {
	return ProcTraps{m: m, waits: waits, base: base, check: check}
}

// Handles reports whether nr is one of the process traps.
func (t *ProcTraps) Handles(nr uint32) bool { return nr-t.base < ProcTrapCount }

// Trap runs the process trap in f, from the live process pid, and returns
// its disposition.
func (t *ProcTraps) Trap(pid PID, f *Frame) Disposition {
	switch op := f.Nr - t.base; op {
	case ProcSleep:
		return t.waits.Sleep(t.waits.lookup(pid), time.Duration(f.R[0]))
	case ProcTrace:
		t.m.trace.Log(f.S0, f.S1)
	case ProcDevRead, ProcDevWrite:
		dev, err := t.check(pid, f, op == ProcDevWrite)
		switch {
		case err != nil:
			f.Err = err
		case op == ProcDevWrite:
			f.Err = t.m.bus.Write(dev, uint32(f.R[1]), uint32(f.R[2]))
		default:
			v, err := t.m.bus.Read(dev, uint32(f.R[1]))
			f.R[0], f.Err = uint64(v), err
		}
	case ProcExit:
		// Exit unwinds the caller: the error slot is read only if it fails.
		f.Err = t.m.engine.Exit(pid)
	}
	return DispositionContinue
}

// ProcAPI is the process side of the clock and console traps, embedded in
// every kernel's system-call interface.
type ProcAPI struct {
	ctx  *Context
	base uint32
}

// NewProcAPI returns the clock and console wrappers of the process behind
// ctx, for a kernel whose base process trap is base.
func NewProcAPI(ctx *Context, base uint32) ProcAPI {
	return ProcAPI{ctx: ctx, base: base}
}

// Now returns the current virtual time (free, no trap).
func (a *ProcAPI) Now() Time { return a.ctx.Now() }

// Sleep blocks the process for a virtual duration.
func (a *ProcAPI) Sleep(d time.Duration) {
	a.ctx.Frame().R[0] = uint64(d)
	a.ctx.Trap(a.base + ProcSleep)
}

// Trace writes a line to the board trace console.
func (a *ProcAPI) Trace(tag, text string) {
	f := a.ctx.Frame()
	f.S0, f.S1 = tag, text
	a.ctx.Trap(a.base + ProcTrace)
}

// DeviceAPI is ProcAPI plus exit and the device traps, for a kernel whose
// processes name a device by its ID: MINIX and Linux. seL4 names a device
// by a capability and keeps its own device wrappers.
type DeviceAPI struct {
	ProcAPI
}

// NewDeviceAPI returns the process-trap wrappers of the process behind
// ctx, for a kernel whose base process trap is base.
func NewDeviceAPI(ctx *Context, base uint32) DeviceAPI {
	return DeviceAPI{NewProcAPI(ctx, base)}
}

// DevRead reads a device register; the kernel's access check applies.
func (a *DeviceAPI) DevRead(dev DeviceID, reg uint32) (uint32, error) {
	f := a.ctx.Frame()
	f.S0, f.R[1] = string(dev), uint64(reg)
	if err := a.ctx.Trap(a.base + ProcDevRead); err != nil {
		return 0, err
	}
	return uint32(f.R[0]), nil
}

// DevWrite writes a device register; the kernel's access check applies.
func (a *DeviceAPI) DevWrite(dev DeviceID, reg uint32, value uint32) error {
	f := a.ctx.Frame()
	f.S0, f.R[1], f.R[2] = string(dev), uint64(reg), uint64(value)
	return a.ctx.Trap(a.base + ProcDevWrite)
}

// Exit terminates the calling process voluntarily. It does not return.
func (a *DeviceAPI) Exit() {
	a.ctx.Trap(a.base + ProcExit)
	panic("machine: Exit returned")
}
