package minix

import (
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// traceReq is the trap behind API.Trace.
type traceReq struct {
	tag  string
	text string
}

// API is the system-call interface a simulated MINIX process programs
// against. One API value is handed to each Image body; all methods trap into
// the kernel and may yield the virtual CPU.
type API struct {
	ctx  *machine.Context
	self Endpoint

	// Scratch requests, one per trap. Boxing a pointer into the trap's any
	// costs no heap allocation, and the kernel consumes each request
	// synchronously inside HandleTrap, so one scratch value per request type
	// is enough: by the time the trap returns (or blocks), the kernel no
	// longer reads it. Every trap goes through its scratch value, the rarely
	// used ones included, so an attacker looping on any of them allocates
	// nothing per call.
	sendScratch    sendReq
	recvScratch    receiveReq
	recvTOScratch  receiveTimeoutReq
	sendRecScratch sendRecReq
	notifyScratch  notifyReq
	sendNBScratch  sendNBReq
	sleepScratch   sleepReq
	devRdScratch   devReadReq
	devWrScratch   devWriteReq
	lookupScratch  lookupReq
	traceScratch   traceReq
	exitScratch    exitReq
	listenScratch  netListenReq
	acceptScratch  netAcceptReq
	netRdScratch   netReadReq
	netWrScratch   netWriteReq
	closeScratch   netCloseReq
	grantScratch   grantCreateReq
	revokeScratch  grantRevokeReq
	copyScratch    safeCopyReq
	kSpawnScratch  kSpawnReq
	kKillScratch   kKillReq
}

// Self returns the calling process's endpoint.
func (a *API) Self() Endpoint { return a.self }

// Now returns the current virtual time (free, no trap).
func (a *API) Now() machine.Time { return a.ctx.Now() }

// Send delivers msg to dst synchronously, blocking until the receiver picks
// it up (rendezvous). The kernel stamps the source and consults the ACM.
func (a *API) Send(dst Endpoint, msg Message) error {
	a.sendScratch = sendReq{dst: dst, msg: msg}
	return a.ctx.Trap(&a.sendScratch).(*ipcReply).err
}

// Receive blocks until a message from the given source (EndpointAny for any)
// is available and returns it.
func (a *API) Receive(from Endpoint) (Message, error) {
	a.recvScratch = receiveReq{from: from}
	reply := a.ctx.Trap(&a.recvScratch).(*ipcReply)
	return reply.msg, reply.err
}

// ReceiveTimeout is Receive with a watchdog: it returns ErrTimeout if no
// matching message arrives within d of virtual time. Hardened drivers use
// it to notice silent peers instead of blocking forever.
func (a *API) ReceiveTimeout(from Endpoint, d time.Duration) (Message, error) {
	a.recvTOScratch = receiveTimeoutReq{from: from, d: d}
	reply := a.ctx.Trap(&a.recvTOScratch).(*ipcReply)
	return reply.msg, reply.err
}

// SendRec performs the atomic send-then-receive used for RPC: it sends msg
// to dst and blocks until dst sends a reply back.
func (a *API) SendRec(dst Endpoint, msg Message) (Message, error) {
	a.sendRecScratch = sendRecReq{dst: dst, msg: msg}
	reply := a.ctx.Trap(&a.sendRecScratch).(*ipcReply)
	return reply.msg, reply.err
}

// Notify posts a payload-less notification to dst without blocking.
// Notifications are delivered ahead of ordinary messages and collapse like
// bits; they are subject to the ACM's ACKNOWLEDGE (type 0) permission.
func (a *API) Notify(dst Endpoint) error {
	a.notifyScratch = notifyReq{dst: dst}
	return a.ctx.Trap(&a.notifyScratch).(*errReply).err
}

// SendNB sends msg asynchronously: delivered immediately if dst is waiting,
// otherwise queued in dst's bounded mailbox. It never blocks the caller.
func (a *API) SendNB(dst Endpoint, msg Message) error {
	a.sendNBScratch = sendNBReq{dst: dst, msg: msg}
	return a.ctx.Trap(&a.sendNBScratch).(*errReply).err
}

// Sleep blocks the process for a virtual duration.
func (a *API) Sleep(d time.Duration) {
	a.sleepScratch = sleepReq{d: d}
	a.ctx.Trap(&a.sleepScratch)
}

// DevRead reads a device register; the process must hold the device grant.
func (a *API) DevRead(dev machine.DeviceID, reg uint32) (uint32, error) {
	a.devRdScratch = devReadReq{dev: dev, reg: reg}
	reply := a.ctx.Trap(&a.devRdScratch).(*u32Reply)
	return reply.value, reply.err
}

// DevWrite writes a device register; the process must hold the device grant.
func (a *API) DevWrite(dev machine.DeviceID, reg uint32, value uint32) error {
	a.devWrScratch = devWriteReq{dev: dev, reg: reg, value: value}
	return a.ctx.Trap(&a.devWrScratch).(*errReply).err
}

// Lookup resolves a published process name to its current endpoint (the
// kernel directory service; processes are auto-published at spawn).
func (a *API) Lookup(name string) (Endpoint, error) {
	a.lookupScratch = lookupReq{name: name}
	reply := a.ctx.Trap(&a.lookupScratch).(*epReply)
	return reply.ep, reply.err
}

// Trace writes a line to the board trace console.
func (a *API) Trace(tag, text string) {
	a.traceScratch = traceReq{tag: tag, text: text}
	a.ctx.Trap(&a.traceScratch)
}

// Exit terminates the calling process voluntarily. It does not return.
func (a *API) Exit() {
	a.ctx.Trap(&a.exitScratch)
	panic("minix: Exit returned")
}

// NetListen binds a port (network privilege required) and returns a
// listener handle.
func (a *API) NetListen(port vnet.Port) (int32, error) {
	a.listenScratch = netListenReq{port: port}
	reply := a.ctx.Trap(&a.listenScratch).(*handleReply)
	return reply.handle, reply.err
}

// NetAccept blocks until a connection arrives and returns its handle.
func (a *API) NetAccept(listener int32) (int32, error) {
	a.acceptScratch = netAcceptReq{listener: listener}
	reply := a.ctx.Trap(&a.acceptScratch).(*handleReply)
	return reply.handle, reply.err
}

// NetRead blocks until data (or EOF) is available and returns up to max
// bytes; max <= 0 means "whatever is buffered".
func (a *API) NetRead(conn int32, max int) ([]byte, error) {
	a.netRdScratch = netReadReq{conn: conn, max: max}
	reply := a.ctx.Trap(&a.netRdScratch).(*bytesReply)
	return reply.data, reply.err
}

// NetWrite sends bytes on a connection.
func (a *API) NetWrite(conn int32, data []byte) error {
	a.netWrScratch = netWriteReq{conn: conn, data: data}
	err := a.ctx.Trap(&a.netWrScratch).(*errReply).err
	a.netWrScratch.data = nil
	return err
}

// NetClose closes a connection handle.
func (a *API) NetClose(conn int32) error {
	a.closeScratch = netCloseReq{conn: conn}
	return a.ctx.Trap(&a.closeScratch).(*errReply).err
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
