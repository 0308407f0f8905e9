package linuxsim

import (
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/vnet"
)

// API is the POSIX-ish system-call surface a simulated Linux process
// programs against.
type API struct {
	ctx *machine.Context

	// Scratch requests, one per trap. Boxing a pointer into the trap's any
	// costs no heap allocation, and the kernel consumes each request
	// synchronously inside HandleTrap, so one scratch value per request type
	// is enough. Every trap goes through its scratch value, the rarely used
	// ones included, so an attacker looping on any of them allocates
	// nothing per call.
	sendScratch    mqSendReq
	recvScratch    mqReceiveReq
	recvTOScratch  mqReceiveTimeoutReq
	sleepScratch   sleepReq
	devRdScratch   devReadReq
	devWrScratch   devWriteReq
	openScratch    mqOpenReq
	unlinkScratch  mqUnlinkReq
	closeScratch   mqCloseReq
	killScratch    killReq
	forkScratch    forkReq
	respawnScratch respawnReq
	pidScratch     getPIDReq
	uidScratch     getUIDReq
	traceScratch   traceReq
	exitScratch    exitReq
	listenScratch  netListenReq
	acceptScratch  netAcceptReq
	netRdScratch   netReadReq
	netWrScratch   netWriteReq
	netClScratch   netCloseReq
}

// Now returns the current virtual time (free, no trap).
func (a *API) Now() machine.Time { return a.ctx.Now() }

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

// MQOpen implements mq_open.
func (a *API) MQOpen(name string, flags MQOpenFlags) (int32, error) {
	a.openScratch = mqOpenReq{
		name:     name,
		create:   flags.Create,
		excl:     flags.Excl,
		mode:     flags.Mode,
		maxMsgs:  flags.MaxMsgs,
		read:     flags.Read,
		write:    flags.Write,
		nonblock: flags.NonBlock,
	}
	reply := a.ctx.Trap(&a.openScratch).(*fdReply)
	return reply.fd, reply.err
}

// MQSend implements mq_send. The kernel copies data before returning, so
// the caller may reuse the buffer immediately.
func (a *API) MQSend(fd int32, data []byte, prio uint32) error {
	a.sendScratch = mqSendReq{fd: fd, data: data, prio: prio}
	err := a.ctx.Trap(&a.sendScratch).(*errReply).err
	a.sendScratch.data = nil
	return err
}

// MQReceive implements mq_receive. The returned message's Data is valid
// until the process's next MQReceive/MQReceiveTimeout (the kernel recycles
// payload buffers); callers that keep a payload must copy it.
func (a *API) MQReceive(fd int32) (MQMsg, error) {
	a.recvScratch = mqReceiveReq{fd: fd}
	reply := a.ctx.Trap(&a.recvScratch).(*msgReply)
	return reply.msg, reply.err
}

// MQReceiveTimeout implements mq_timedreceive: it returns ErrTimeout if no
// message arrives within d of virtual time. Hardened control loops use it as
// a liveness watchdog on their input queues.
func (a *API) MQReceiveTimeout(fd int32, d time.Duration) (MQMsg, error) {
	a.recvTOScratch = mqReceiveTimeoutReq{fd: fd, d: d}
	reply := a.ctx.Trap(&a.recvTOScratch).(*msgReply)
	return reply.msg, reply.err
}

// MQUnlink implements mq_unlink.
func (a *API) MQUnlink(name string) error {
	a.unlinkScratch = mqUnlinkReq{name: name}
	return a.ctx.Trap(&a.unlinkScratch).(*errReply).err
}

// MQClose implements mq_close.
func (a *API) MQClose(fd int32) error {
	a.closeScratch = mqCloseReq{fd: fd}
	return a.ctx.Trap(&a.closeScratch).(*errReply).err
}

// Kill implements kill(2).
func (a *API) Kill(unixPID, sig int) error {
	a.killScratch = killReq{unixPID: unixPID, sig: sig}
	return a.ctx.Trap(&a.killScratch).(*errReply).err
}

// Fork spawns a registered image under the caller's credentials.
func (a *API) Fork(image string) (int, error) {
	a.forkScratch = forkReq{image: image}
	reply := a.ctx.Trap(&a.forkScratch).(*intReply)
	return reply.value, reply.err
}

// Respawn spawns a registered image under its declared credentials — the
// supervisor primitive. Root only; fails with ErrExist while the image is
// still running.
func (a *API) Respawn(image string) (int, error) {
	a.respawnScratch = respawnReq{image: image}
	reply := a.ctx.Trap(&a.respawnScratch).(*intReply)
	return reply.value, reply.err
}

// GetPID returns the caller's unix pid.
func (a *API) GetPID() int {
	return a.ctx.Trap(&a.pidScratch).(*intReply).value
}

// GetUID returns the caller's uid.
func (a *API) GetUID() int {
	return a.ctx.Trap(&a.uidScratch).(*intReply).value
}

// Sleep blocks for a virtual duration.
func (a *API) Sleep(d time.Duration) {
	a.sleepScratch = sleepReq{d: d}
	a.ctx.Trap(&a.sleepScratch)
}

// DevRead reads a device register through its /dev node (DAC applies).
func (a *API) DevRead(dev machine.DeviceID, reg uint32) (uint32, error) {
	a.devRdScratch = devReadReq{dev: dev, reg: reg}
	reply := a.ctx.Trap(&a.devRdScratch).(*u32Reply)
	return reply.value, reply.err
}

// DevWrite writes a device register through its /dev node (DAC applies).
func (a *API) DevWrite(dev machine.DeviceID, reg uint32, value uint32) error {
	a.devWrScratch = devWriteReq{dev: dev, reg: reg, value: value}
	return a.ctx.Trap(&a.devWrScratch).(*errReply).err
}

// Trace writes to the board trace console.
func (a *API) Trace(tag, text string) {
	a.traceScratch = traceReq{tag: tag, text: text}
	a.ctx.Trap(&a.traceScratch)
}

// Exit terminates the caller. It does not return.
func (a *API) Exit() {
	a.ctx.Trap(&a.exitScratch)
	panic("linuxsim: Exit returned")
}

// NetListen binds a port.
func (a *API) NetListen(port vnet.Port) (int32, error) {
	a.listenScratch = netListenReq{port: port}
	reply := a.ctx.Trap(&a.listenScratch).(*handleReply)
	return reply.handle, reply.err
}

// NetAccept blocks until a connection arrives.
func (a *API) NetAccept(listener int32) (int32, error) {
	a.acceptScratch = netAcceptReq{listener: listener}
	reply := a.ctx.Trap(&a.acceptScratch).(*handleReply)
	return reply.handle, reply.err
}

// NetRead blocks until data or EOF is available.
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

// NetClose closes a connection.
func (a *API) NetClose(conn int32) error {
	a.netClScratch = netCloseReq{conn: conn}
	return a.ctx.Trap(&a.netClScratch).(*errReply).err
}
