package linuxsim

import (
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// API is the POSIX-ish system-call surface a simulated Linux process
// programs against. Each wrapper writes its arguments into the process's
// trap frame, traps with its number (see the table in syscalls.go), and
// reads the reply back from the frame. The clock, console, device (through
// the /dev node, DAC applies) and exit calls are the embedded DeviceAPI's.
type API struct {
	vnet.SocketAPI
	machine.DeviceAPI
	ctx *machine.Context
	f   *machine.Frame
}

// MQOpenFlags configures MQOpen.
type MQOpenFlags struct {
	Create   bool
	Excl     bool
	Read     bool
	Write    bool
	NonBlock bool
	Mode     Mode
	MaxMsgs  int
}

// The mq_open flag bits of the trap frame's R0.
const (
	openCreate uint64 = 1 << iota
	openExcl
	openRead
	openWrite
	openNonBlock
)

// MQOpen implements mq_open.
func (a *API) MQOpen(name string, flags MQOpenFlags) (int32, error) {
	bits := flagBit(flags.Create, openCreate) | flagBit(flags.Excl, openExcl) |
		flagBit(flags.Read, openRead) | flagBit(flags.Write, openWrite) |
		flagBit(flags.NonBlock, openNonBlock)
	a.f.S0, a.f.R[0], a.f.R[1], a.f.R[2] = name, bits, uint64(flags.Mode), uint64(flags.MaxMsgs)
	if err := a.ctx.Trap(trapMQOpen); err != nil {
		return 0, err
	}
	return int32(a.f.R[0]), nil
}

// flagBit returns bit when set, else 0.
func flagBit(set bool, bit uint64) uint64 {
	if set {
		return bit
	}
	return 0
}

// MQSend implements mq_send. The kernel copies data before returning, so
// the caller may reuse the buffer immediately.
func (a *API) MQSend(fd int32, data []byte, prio uint32) error {
	a.f.R[0], a.f.R[1], a.f.Buf = uint64(fd), uint64(prio), data
	err := a.ctx.Trap(trapMQSend)
	a.f.Buf = nil
	return err
}

// MQReceive implements mq_receive. The returned message's Data is valid
// until the process's next MQReceive/MQReceiveTimeout (the kernel recycles
// payload buffers); callers that keep a payload must copy it.
func (a *API) MQReceive(fd int32) (MQMsg, error) {
	a.f.R[0] = uint64(fd)
	return a.msgReply(a.ctx.Trap(trapMQReceive))
}

// MQReceiveTimeout implements mq_timedreceive: it returns ErrTimeout if no
// message arrives within d of virtual time. Hardened control loops use it as
// a liveness watchdog on their input queues.
func (a *API) MQReceiveTimeout(fd int32, d time.Duration) (MQMsg, error) {
	a.f.R[0], a.f.R[1] = uint64(fd), uint64(d)
	return a.msgReply(a.ctx.Trap(trapMQReceiveTimeout))
}

// msgReply returns the message a receive left in the frame (payload in Buf,
// priority in R0), or the zero message when the receive failed.
func (a *API) msgReply(err error) (MQMsg, error) {
	data := a.f.Buf
	a.f.Buf = nil
	if err != nil {
		return MQMsg{}, err
	}
	return MQMsg{Data: data, Prio: uint32(a.f.R[0])}, nil
}

// MQUnlink implements mq_unlink.
func (a *API) MQUnlink(name string) error {
	a.f.S0 = name
	return a.ctx.Trap(trapMQUnlink)
}

// MQClose implements mq_close.
func (a *API) MQClose(fd int32) error {
	a.f.R[0] = uint64(fd)
	return a.ctx.Trap(trapMQClose)
}

// Kill implements kill(2).
func (a *API) Kill(unixPID, sig int) error {
	a.f.R[0], a.f.R[1] = uint64(unixPID), uint64(sig)
	return a.ctx.Trap(trapKill)
}

// Fork spawns a registered image under the caller's credentials.
func (a *API) Fork(image string) (int, error) {
	a.f.S0 = image
	return a.intReply(a.ctx.Trap(trapFork))
}

// Respawn spawns a registered image under its declared credentials — the
// supervisor primitive. Root only; fails with ErrExist while the image is
// still running.
func (a *API) Respawn(image string) (int, error) {
	a.f.S0 = image
	return a.intReply(a.ctx.Trap(trapRespawn))
}

// intReply returns the integer a trap left in R0, or 0 when the trap
// failed.
func (a *API) intReply(err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return int(a.f.R[0]), nil
}

// GetPID returns the caller's unix pid.
func (a *API) GetPID() int {
	a.ctx.Trap(trapGetPID)
	return int(a.f.R[0])
}

// GetUID returns the caller's uid.
func (a *API) GetUID() int {
	a.ctx.Trap(trapGetUID)
	return int(a.f.R[0])
}

// NetListen binds a port and returns a listener handle. The other socket
// calls are the embedded SocketAPI's.
func (a *API) NetListen(port vnet.Port) (int32, error) {
	a.f.R[0] = uint64(port)
	if err := a.ctx.Trap(trapNetListen); err != nil {
		return 0, err
	}
	return int32(a.f.R[0]), nil
}
