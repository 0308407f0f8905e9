package sel4

import (
	"time"

	"mkbas/internal/machine"
)

// API is the system-call interface a simulated seL4 thread programs against.
// Every method that names a capability takes a CPtr into the calling
// thread's own CSpace; the kernel validates possession and rights.
type API struct {
	ctx *machine.Context
	k   *Kernel

	// Scratch requests, one per trap: boxing a pointer into the trap's any
	// costs no heap allocation, and the kernel consumes each request
	// synchronously inside HandleTrap, so one scratch value per request type
	// suffices. Every trap goes through its scratch value, the rarely used
	// ones included, so a thread probing its CSpace with any of them
	// allocates nothing per call.
	sendScratch    sendTrap
	recvScratch    recvTrap
	callScratch    callTrap
	replyScratch   replyTrap
	sleepScratch   sleepTrap
	devRdScratch   devReadTrap
	devWrScratch   devWriteTrap
	signalScratch  signalTrap
	waitScratch    waitTrap
	suspendScratch tcbSuspendTrap
	copyScratch    capCopyTrap
	mintScratch    capMintTrap
	deleteScratch  capDeleteTrap
	traceScratch   traceTrap
	listenScratch  netListenTrap
	acceptScratch  netAcceptTrap
	netRdScratch   netReadTrap
	netWrScratch   netWriteTrap
	closeScratch   netCloseTrap
}

// Now returns the current virtual time (free, no trap).
func (a *API) Now() machine.Time { return a.ctx.Now() }

// Send performs seL4_Send: blocking send through an endpoint capability
// (write right required; grant required when msg transfers a capability).
func (a *API) Send(cptr CPtr, msg Msg) error {
	a.sendScratch = sendTrap{cptr: cptr, msg: msg}
	return a.ctx.Trap(&a.sendScratch).(*errResult).err
}

// NBSend performs seL4_NBSend: like Send, but silently dropped when no
// receiver is waiting.
func (a *API) NBSend(cptr CPtr, msg Msg) error {
	a.sendScratch = sendTrap{cptr: cptr, msg: msg, nb: true}
	return a.ctx.Trap(&a.sendScratch).(*errResult).err
}

// Recv performs seL4_Recv: blocking receive on an endpoint capability (read
// right required). The result carries the sender's badge and, if the sender
// transferred a capability, the slot it landed in.
func (a *API) Recv(cptr CPtr) (RecvResult, error) {
	a.recvScratch = recvTrap{cptr: cptr}
	reply := a.ctx.Trap(&a.recvScratch).(*recvResultReply)
	return reply.res, reply.err
}

// NBRecv performs seL4_NBRecv: ErrWouldBlock when no sender is queued.
func (a *API) NBRecv(cptr CPtr) (RecvResult, error) {
	a.recvScratch = recvTrap{cptr: cptr, nb: true}
	reply := a.ctx.Trap(&a.recvScratch).(*recvResultReply)
	return reply.res, reply.err
}

// Call performs seL4_Call: atomic send plus receive of the reply, using a
// one-time reply capability the kernel mints for the receiver. Requires
// write and grant rights on the endpoint capability.
func (a *API) Call(cptr CPtr, msg Msg) (Msg, error) {
	a.callScratch = callTrap{cptr: cptr, msg: msg}
	reply := a.ctx.Trap(&a.callScratch).(*callResultReply)
	return reply.msg, reply.err
}

// Reply performs seL4_Reply, consuming the thread's pending reply
// capability.
func (a *API) Reply(msg Msg) error {
	a.replyScratch = replyTrap{msg: msg}
	return a.ctx.Trap(&a.replyScratch).(*errResult).err
}

// TCBSuspend invokes TCB_Suspend on the thread referenced by a TCB
// capability (write right required). The suspended thread never runs again.
func (a *API) TCBSuspend(cptr CPtr) error {
	a.suspendScratch = tcbSuspendTrap{cptr: cptr}
	return a.ctx.Trap(&a.suspendScratch).(*errResult).err
}

// CapCopy copies a capability between two of the caller's own slots.
func (a *API) CapCopy(src, dst CPtr) error {
	a.copyScratch = capCopyTrap{src: src, dst: dst}
	return a.ctx.Trap(&a.copyScratch).(*errResult).err
}

// CapMint copies a capability with a (possibly) narrowed rights mask and a
// new badge. Rights can never be widened.
func (a *API) CapMint(src, dst CPtr, badge Badge, rights Rights) error {
	a.mintScratch = capMintTrap{src: src, dst: dst, badge: badge, rights: rights}
	return a.ctx.Trap(&a.mintScratch).(*errResult).err
}

// CapDelete empties one of the caller's slots.
func (a *API) CapDelete(slot CPtr) error {
	a.deleteScratch = capDeleteTrap{slot: slot}
	return a.ctx.Trap(&a.deleteScratch).(*errResult).err
}

// DevRead reads a device register through a device capability (read right).
func (a *API) DevRead(cptr CPtr, reg uint32) (uint32, error) {
	a.devRdScratch = devReadTrap{cptr: cptr, reg: reg}
	reply := a.ctx.Trap(&a.devRdScratch).(*u32Result)
	return reply.value, reply.err
}

// DevWrite writes a device register through a device capability (write
// right).
func (a *API) DevWrite(cptr CPtr, reg uint32, value uint32) error {
	a.devWrScratch = devWriteTrap{cptr: cptr, reg: reg, value: value}
	return a.ctx.Trap(&a.devWrScratch).(*errResult).err
}

// Sleep parks the thread on the timer service for a virtual duration.
func (a *API) Sleep(d time.Duration) {
	a.sleepScratch = sleepTrap{d: d}
	a.ctx.Trap(&a.sleepScratch)
}

// Trace writes a line to the board trace console.
func (a *API) Trace(tag, text string) {
	a.traceScratch = traceTrap{tag: tag, text: text}
	a.ctx.Trap(&a.traceScratch)
}

// NetListen binds the port referenced by a net-port capability (read right)
// and returns a listener handle.
func (a *API) NetListen(cptr CPtr) (int32, error) {
	a.listenScratch = netListenTrap{cptr: cptr}
	reply := a.ctx.Trap(&a.listenScratch).(*handleResult)
	return reply.handle, reply.err
}

// NetAccept blocks until a connection arrives on the listener handle.
func (a *API) NetAccept(listener int32) (int32, error) {
	a.acceptScratch = netAcceptTrap{listener: listener}
	reply := a.ctx.Trap(&a.acceptScratch).(*handleResult)
	return reply.handle, reply.err
}

// NetRead blocks until data (or EOF) is available on the connection handle.
func (a *API) NetRead(conn int32, max int) ([]byte, error) {
	a.netRdScratch = netReadTrap{conn: conn, max: max}
	reply := a.ctx.Trap(&a.netRdScratch).(*bytesResult)
	return reply.data, reply.err
}

// NetWrite sends bytes on the connection handle.
func (a *API) NetWrite(conn int32, data []byte) error {
	a.netWrScratch = netWriteTrap{conn: conn, data: data}
	err := a.ctx.Trap(&a.netWrScratch).(*errResult).err
	a.netWrScratch.data = nil
	return err
}

// NetClose closes the connection handle.
func (a *API) NetClose(conn int32) error {
	a.closeScratch = netCloseTrap{conn: conn}
	return a.ctx.Trap(&a.closeScratch).(*errResult).err
}
