package sel4

import (
	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// API is the system-call interface a simulated seL4 thread programs against.
// Every method that names a capability takes a CPtr into the calling
// thread's own CSpace; the kernel validates possession and rights. Each
// wrapper writes its arguments into the thread's trap frame, traps with its
// number (see the table in ipc.go), and reads the reply back from the frame.
// The clock and console calls are the embedded ProcAPI's.
type API struct {
	vnet.SocketAPI
	machine.ProcAPI
	ctx *machine.Context
	f   *machine.Frame
}

// A message travels in a trap frame's registers R1..R11, as seL4's message
// registers: R1 the label, R2..R9 the words, and R10 and R11 a transferred
// capability, as a presence flag and the slot. R0 stays free for the
// capability pointer going in and the badge coming back.

// putMsg writes msg into f's message registers.
func putMsg(f *machine.Frame, msg *Msg) {
	f.R[1] = msg.Label
	copy(f.R[2:2+MsgWords], msg.Words[:])
	f.R[10], f.R[11] = 0, 0
	if msg.TransferCap != nil {
		f.R[10], f.R[11] = 1, uint64(*msg.TransferCap)
	}
}

// frameMsg reads the label and words in f's message registers.
func frameMsg(f *machine.Frame) Msg {
	msg := Msg{Label: f.R[1]}
	copy(msg.Words[:], f.R[2:2+MsgWords])
	return msg
}

// Send performs seL4_Send: blocking send through an endpoint capability
// (write right required; grant required when msg transfers a capability).
func (a *API) Send(cptr CPtr, msg Msg) error {
	return a.send(trapSend, cptr, &msg)
}

// NBSend performs seL4_NBSend: like Send, but silently dropped when no
// receiver is waiting.
func (a *API) NBSend(cptr CPtr, msg Msg) error {
	return a.send(trapNBSend, cptr, &msg)
}

func (a *API) send(nr uint32, cptr CPtr, msg *Msg) error {
	a.f.R[0] = uint64(cptr)
	putMsg(a.f, msg)
	return a.ctx.Trap(nr)
}

// Recv performs seL4_Recv: blocking receive on an endpoint capability (read
// right required). The result carries the sender's badge and, if the sender
// transferred a capability, the slot it landed in.
func (a *API) Recv(cptr CPtr) (RecvResult, error) {
	return a.recv(trapRecv, cptr)
}

// NBRecv performs seL4_NBRecv: ErrWouldBlock when no sender is queued.
func (a *API) NBRecv(cptr CPtr) (RecvResult, error) {
	return a.recv(trapNBRecv, cptr)
}

func (a *API) recv(nr uint32, cptr CPtr) (RecvResult, error) {
	a.f.R[0] = uint64(cptr)
	if err := a.ctx.Trap(nr); err != nil {
		return RecvResult{}, err
	}
	res := RecvResult{Msg: frameMsg(a.f), Badge: Badge(a.f.R[0])}
	if a.f.R[10] != 0 {
		slot := CPtr(a.f.R[11])
		res.CapSlot = &slot
	}
	return res, nil
}

// Call performs seL4_Call: atomic send plus receive of the reply, using a
// one-time reply capability the kernel mints for the receiver. Requires
// write and grant rights on the endpoint capability.
func (a *API) Call(cptr CPtr, msg Msg) (Msg, error) {
	if err := a.send(trapCall, cptr, &msg); err != nil {
		return Msg{}, err
	}
	return frameMsg(a.f), nil
}

// Reply performs seL4_Reply, consuming the thread's pending reply
// capability. The reply carries msg's label and words.
func (a *API) Reply(msg Msg) error {
	putMsg(a.f, &msg)
	return a.ctx.Trap(trapReply)
}

// TCBSuspend invokes TCB_Suspend on the thread referenced by a TCB
// capability (write right required). The suspended thread never runs again.
func (a *API) TCBSuspend(cptr CPtr) error {
	a.f.R[0] = uint64(cptr)
	return a.ctx.Trap(trapTCBSuspend)
}

// CapCopy copies a capability between two of the caller's own slots.
func (a *API) CapCopy(src, dst CPtr) error {
	a.f.R[0], a.f.R[1] = uint64(src), uint64(dst)
	return a.ctx.Trap(trapCapCopy)
}

// CapMint copies a capability with a (possibly) narrowed rights mask and a
// new badge. Rights can never be widened.
func (a *API) CapMint(src, dst CPtr, badge Badge, rights Rights) error {
	a.f.R[0], a.f.R[1], a.f.R[2], a.f.R[3] = uint64(src), uint64(dst), uint64(badge), uint64(rights)
	return a.ctx.Trap(trapCapMint)
}

// CapDelete empties one of the caller's slots.
func (a *API) CapDelete(slot CPtr) error {
	a.f.R[0] = uint64(slot)
	return a.ctx.Trap(trapCapDelete)
}

// DevRead reads a device register through a device capability (read right).
func (a *API) DevRead(cptr CPtr, reg uint32) (uint32, error) {
	a.f.R[0], a.f.R[1] = uint64(cptr), uint64(reg)
	if err := a.ctx.Trap(trapProc + machine.ProcDevRead); err != nil {
		return 0, err
	}
	return uint32(a.f.R[0]), nil
}

// DevWrite writes a device register through a device capability (write
// right).
func (a *API) DevWrite(cptr CPtr, reg uint32, value uint32) error {
	a.f.R[0], a.f.R[1], a.f.R[2] = uint64(cptr), uint64(reg), uint64(value)
	return a.ctx.Trap(trapProc + machine.ProcDevWrite)
}

// NetListen binds the port referenced by a net-port capability (read right)
// and returns a listener handle. The other socket calls are the embedded
// SocketAPI's.
func (a *API) NetListen(cptr CPtr) (int32, error) {
	a.f.R[0] = uint64(cptr)
	if err := a.ctx.Trap(trapNetListen); err != nil {
		return 0, err
	}
	return int32(a.f.R[0]), nil
}
