package minix

import (
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// API is the system-call interface a simulated MINIX process programs
// against. One API value is handed to each Image body; all methods trap into
// the kernel and may yield the virtual CPU. Each wrapper writes its
// arguments into the process's trap frame, traps with its number (see the
// table in syscalls.go), and reads the reply back from the frame. The
// clock, console, device and exit calls are the embedded DeviceAPI's.
type API struct {
	vnet.SocketAPI
	machine.DeviceAPI
	ctx  *machine.Context
	f    *machine.Frame
	self Endpoint
}

// Self returns the calling process's endpoint.
func (a *API) Self() Endpoint { return a.self }

// Send delivers msg to dst synchronously, blocking until the receiver picks
// it up (rendezvous). The kernel stamps the source and consults the ACM.
func (a *API) Send(dst Endpoint, msg Message) error {
	a.f.R[0] = uint64(dst)
	putMsg(a.f, &msg)
	return a.ctx.Trap(trapSend)
}

// Receive blocks until a message from the given source (EndpointAny for any)
// is available and returns it.
func (a *API) Receive(from Endpoint) (Message, error) {
	a.f.R[0] = uint64(from)
	return a.msgReply(a.ctx.Trap(trapReceive))
}

// ReceiveTimeout is Receive with a watchdog: it returns ErrTimeout if no
// matching message arrives within d of virtual time. Hardened drivers use
// it to notice silent peers instead of blocking forever.
func (a *API) ReceiveTimeout(from Endpoint, d time.Duration) (Message, error) {
	a.f.R[0], a.f.R[1] = uint64(from), uint64(d)
	return a.msgReply(a.ctx.Trap(trapReceiveTimeout))
}

// SendRec performs the atomic send-then-receive used for RPC: it sends msg
// to dst and blocks until dst sends a reply back.
func (a *API) SendRec(dst Endpoint, msg Message) (Message, error) {
	a.f.R[0] = uint64(dst)
	putMsg(a.f, &msg)
	return a.msgReply(a.ctx.Trap(trapSendRec))
}

// msgReply returns the message a receiving trap left in the frame, or the
// zero message when the trap failed.
func (a *API) msgReply(err error) (Message, error) {
	if err != nil {
		return Message{}, err
	}
	return frameMsg(a.f), nil
}

// Notify posts a payload-less notification to dst without blocking.
// Notifications are delivered ahead of ordinary messages and collapse like
// bits; they are subject to the ACM's ACKNOWLEDGE (type 0) permission.
func (a *API) Notify(dst Endpoint) error {
	a.f.R[0] = uint64(dst)
	return a.ctx.Trap(trapNotify)
}

// SendNB sends msg asynchronously: delivered immediately if dst is waiting,
// otherwise queued in dst's bounded mailbox. It never blocks the caller.
func (a *API) SendNB(dst Endpoint, msg Message) error {
	a.f.R[0] = uint64(dst)
	putMsg(a.f, &msg)
	return a.ctx.Trap(trapSendNB)
}

// Lookup resolves a published process name to its current endpoint (the
// kernel directory service; processes are auto-published at spawn).
func (a *API) Lookup(name string) (Endpoint, error) {
	a.f.S0 = name
	return a.epReply(a.ctx.Trap(trapLookup))
}

// epReply returns the endpoint a trap left in R0, or EndpointNone when the
// trap failed.
func (a *API) epReply(err error) (Endpoint, error) {
	if err != nil {
		return EndpointNone, err
	}
	return Endpoint(a.f.R[0]), nil
}

// NetListen binds a port (network privilege required) and returns a
// listener handle. The other socket calls are the embedded SocketAPI's.
func (a *API) NetListen(port vnet.Port) (int32, error) {
	a.f.R[0] = uint64(port)
	if err := a.ctx.Trap(trapNetListen); err != nil {
		return 0, err
	}
	return int32(a.f.R[0]), nil
}

// PM protocol message types (the POSIX-ish call surface the process manager
// serves over IPC, Section III-A: "all POSIX-compliant system calls ... can
// only be invoked by sending a message through kernel IPC primitives ... to
// the process management (PM) process").
const (
	// TypePMFork2 asks PM to spawn an image with an explicit ac_id
	// (the paper's fork2/srv_fork2). Payload: image name at 0 (string),
	// requested acid at 40 (u32).
	TypePMFork2 int32 = 10
	// TypePMKill asks PM to kill the process at the endpoint in payload[0:4].
	TypePMKill int32 = 11
	// TypePMReply is PM's answer: wire code at 0 (i32 as u32), endpoint at 4.
	TypePMReply int32 = 12
)

// Fork2 asks the process manager to spawn image with the given ac_id
// (acid 0 inherits the caller's). This is the paper's fork2() call: the
// request is audited against the syscall policy, including fork quotas.
func (a *API) Fork2(image string, acid uint32) (Endpoint, error) {
	pm, err := a.Lookup(PMName)
	if err != nil {
		return EndpointNone, err
	}
	msg := NewMessage(TypePMFork2)
	msg.PutString(0, image)
	msg.PutU32(40, acid)
	reply, err := a.SendRec(pm, msg)
	if err != nil {
		return EndpointNone, err
	}
	if err := errFromCode(int32(reply.U32(0))); err != nil {
		return EndpointNone, err
	}
	return Endpoint(reply.U32(4)), nil
}

// Kill asks the process manager to destroy the process at target. The
// request is audited against the syscall policy: in the scenario policy only
// the loader holds the kill grant, so a compromised web interface is denied
// even with root uid.
func (a *API) Kill(target Endpoint) error {
	pm, err := a.Lookup(PMName)
	if err != nil {
		return err
	}
	msg := NewMessage(TypePMKill)
	msg.PutU32(0, uint32(target))
	reply, err := a.SendRec(pm, msg)
	if err != nil {
		return err
	}
	return errFromCode(int32(reply.U32(0)))
}
