package linuxsim

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// Trap request types.
type (
	mqOpenReq struct {
		name     string
		create   bool
		excl     bool
		mode     Mode
		maxMsgs  int
		read     bool
		write    bool
		nonblock bool
	}
	mqSendReq struct {
		fd   int32
		data []byte
		prio uint32
	}
	mqReceiveReq struct {
		fd int32
	}
	mqReceiveTimeoutReq struct {
		fd int32
		d  time.Duration
	}
	mqUnlinkReq struct {
		name string
	}
	mqCloseReq struct {
		fd int32
	}
	killReq struct {
		unixPID int
		sig     int
	}
	forkReq struct {
		image string
	}
	respawnReq struct {
		image string
	}
	getPIDReq  struct{}
	getUIDReq  struct{}
	sleepReq   struct{ d time.Duration }
	devReadReq struct {
		dev machine.DeviceID
		reg uint32
	}
	devWriteReq struct {
		dev   machine.DeviceID
		reg   uint32
		value uint32
	}
	traceReq struct{ tag, text string }
	exitReq  struct{}

	netListenReq struct{ port vnet.Port }
	netAcceptReq struct{ listener int32 }
	netReadReq   struct {
		conn int32
		max  int
	}
	netWriteReq struct {
		conn int32
		data []byte
	}
	netCloseReq struct{ conn int32 }
)

// Trap reply types.
type (
	errReply struct{ err error }
	fdReply  struct {
		fd  int32
		err error
	}
	msgReply struct {
		msg MQMsg
		err error
	}
	intReply struct {
		value int
		err   error
	}
	u32Reply struct {
		value uint32
		err   error
	}
	handleReply struct {
		handle int32
		err    error
	}
	bytesReply struct {
		data []byte
		err  error
	}
)

// HandleTrap implements machine.TrapHandler.
func (k *Kernel) HandleTrap(pid machine.PID, req any) (any, machine.Disposition) {
	self := k.procOf(pid)
	switch r := req.(type) {
	case *mqOpenReq:
		return k.doMQOpen(self, r)
	case *mqSendReq:
		return k.doMQSend(self, r)
	case *mqReceiveReq:
		return k.doMQReceive(self, r.fd)
	case *mqReceiveTimeoutReq:
		return k.doMQReceiveTimeout(self, r)
	case *mqUnlinkReq:
		return k.doMQUnlink(self, r)
	case *mqCloseReq:
		if _, ok := self.fds[r.fd]; !ok {
			return self.errOut(ErrBadFD), machine.DispositionContinue
		}
		delete(self.fds, r.fd)
		return self.errOut(nil), machine.DispositionContinue
	case *killReq:
		return k.doKill(self, r)
	case *forkReq:
		img, ok := k.images[r.image]
		if !ok {
			return self.intOut(0, fmt.Errorf("%w: %q", ErrUnknownImage, r.image)), machine.DispositionContinue
		}
		// fork/exec inherits the caller's credentials, not the image's
		// declared ones.
		img.UID = self.uid
		img.GID = self.gid
		unixPID, err := k.spawn(img)
		return self.intOut(unixPID, err), machine.DispositionContinue
	case *respawnReq:
		return k.doRespawn(self, r)
	case *getPIDReq:
		return self.intOut(self.unixPID, nil), machine.DispositionContinue
	case *getUIDReq:
		return self.intOut(self.uid, nil), machine.DispositionContinue
	case *sleepReq:
		return k.doSleep(self, r)
	case *devReadReq:
		df, ok := k.devs[r.dev]
		if !ok {
			return self.u32Out(0, fmt.Errorf("%w: device %q", ErrNoEnt, r.dev)), machine.DispositionContinue
		}
		if !allowed(self.uid, self.gid, df.ownerUID, df.ownerGID, df.mode, true, false) {
			k.dacDeny(obs.EventSyscallDenied, self.name, string(r.dev), fmt.Sprintf("read /dev/%s reg %d", r.dev, r.reg))
			return self.u32Out(0, fmt.Errorf("%w: read %q", ErrPerm, r.dev)), machine.DispositionContinue
		}
		v, err := k.m.Bus().Read(r.dev, r.reg)
		return self.u32Out(v, err), machine.DispositionContinue
	case *devWriteReq:
		df, ok := k.devs[r.dev]
		if !ok {
			return self.errOut(fmt.Errorf("%w: device %q", ErrNoEnt, r.dev)), machine.DispositionContinue
		}
		if !allowed(self.uid, self.gid, df.ownerUID, df.ownerGID, df.mode, false, true) {
			k.dacDeny(obs.EventSyscallDenied, self.name, string(r.dev), fmt.Sprintf("write /dev/%s reg %d", r.dev, r.reg))
			return self.errOut(fmt.Errorf("%w: write %q", ErrPerm, r.dev)), machine.DispositionContinue
		}
		return self.errOut(k.m.Bus().Write(r.dev, r.reg, r.value)), machine.DispositionContinue
	case *traceReq:
		k.m.Trace().Log(r.tag, r.text)
		return self.errOut(nil), machine.DispositionContinue
	case *exitReq:
		if err := k.m.Engine().Kill(pid); err != nil {
			return self.errOut(err), machine.DispositionContinue
		}
		return self.errOut(nil), machine.DispositionContinue
	case *netListenReq:
		return k.doNetListen(self, r)
	case *netAcceptReq:
		return k.doNetAccept(self, r)
	case *netReadReq:
		return k.doNetRead(self, r)
	case *netWriteReq:
		return k.doNetWrite(self, r)
	case *netCloseReq:
		return k.doNetClose(self, r)
	default:
		return self.errOut(fmt.Errorf("linuxsim: unknown trap %T", req)), machine.DispositionContinue
	}
}

// doMQOpen implements mq_open with O_CREAT/O_EXCL and access-mode flags.
func (k *Kernel) doMQOpen(self *proc, r *mqOpenReq) (any, machine.Disposition) {
	q, exists := k.mqs[r.name]
	switch {
	case exists && r.create && r.excl:
		return self.fdOut(0, fmt.Errorf("%w: queue %q", ErrExist, r.name)), machine.DispositionContinue
	case !exists && !r.create:
		return self.fdOut(0, fmt.Errorf("%w: queue %q", ErrNoEnt, r.name)), machine.DispositionContinue
	case !exists:
		maxMsgs := r.maxMsgs
		if maxMsgs <= 0 {
			maxMsgs = k.cfg.DefaultMaxMsgs
		}
		q = &mqueue{
			name:     r.name,
			ownerUID: self.uid,
			ownerGID: self.gid,
			mode:     r.mode,
			maxMsgs:  maxMsgs,
			depth:    k.reg.Gauge(fmt.Sprintf("linux_mq_depth{queue=%q}", r.name)),
		}
		k.mqs[r.name] = q
	}
	if !allowed(self.uid, self.gid, q.ownerUID, q.ownerGID, q.mode, r.read, r.write) {
		d := k.denialFor(denialKey{op: "mq_open", src: self.name, queue: r.name, uid: self.uid, mode: q.mode}, func() denial {
			return denial{
				detail: fmt.Sprintf("mq_open uid=%d mode=%04o", self.uid, q.mode),
				trace:  fmt.Sprintf("DENY mq_open %s by %s (uid %d)", r.name, self.name, self.uid),
				err:    fmt.Errorf("%w: queue %q", ErrPerm, r.name),
			}
		})
		k.dacDeny(obs.EventIPCDenied, self.name, r.name, d.detail)
		k.tracer.Emit(k.edges.Intern(self.name, r.name, "mq_open"), obs.OutcomeDACDenied)
		k.m.Trace().Log("linux-dac", d.trace)
		return self.fdOut(0, d.err), machine.DispositionContinue
	}
	self.nextFD++
	handle := self.nextFD
	self.fds[handle] = &fd{q: q, canRead: r.read, canWrite: r.write, nonblock: r.nonblock, edges: mqEdges{
		send:      k.edges.Intern(self.name, q.name, "send"),
		recv:      k.edges.Intern(q.name, self.name, "recv"),
		mqSend:    k.edges.Intern(self.name, q.name, "mq_send"),
		mqReceive: k.edges.Intern(self.name, q.name, "mq_receive"),
	}}
	return self.fdOut(handle, nil), machine.DispositionContinue
}

// getBuf pops a recycled payload buffer (zero length, retained capacity),
// or nil when the pool is empty.
func (k *Kernel) getBuf() []byte {
	if n := len(k.bufPool); n > 0 {
		b := k.bufPool[n-1]
		k.bufPool = k.bufPool[:n-1]
		return b
	}
	return nil
}

// putBuf returns a payload buffer to the pool. The pool is bounded: beyond
// that, buffers fall back to the garbage collector.
func (k *Kernel) putBuf(b []byte) {
	if cap(b) > 0 && len(k.bufPool) < 256 {
		k.bufPool = append(k.bufPool, b[:0])
	}
}

// deliverMsg boxes a delivered message for p and recycles the payload of
// p's previous delivery. A received MQMsg's Data is therefore valid until
// the process's next mq_receive on any descriptor — the contract that lets
// the kernel pool payload copies instead of allocating one per send.
func (k *Kernel) deliverMsg(p *proc, msg MQMsg) any {
	if p.lastMQBuf != nil {
		k.putBuf(p.lastMQBuf)
		p.lastMQBuf = nil
	}
	p.lastMQBuf = msg.Data
	p.msgR = msgReply{msg: msg}
	return &p.msgR
}

// doMQSend implements mq_send: insert by priority, block when full.
func (k *Kernel) doMQSend(self *proc, r *mqSendReq) (any, machine.Disposition) {
	k.mSendsC.Inc()
	f, ok := self.fds[r.fd]
	if !ok || !f.canWrite {
		return self.errOut(ErrBadFD), machine.DispositionContinue
	}
	msg := MQMsg{Data: append(k.getBuf(), r.data...), Prio: r.prio}
	q, e := f.q, f.edges
	drop, delay := k.faultFor(self.name, q.name)
	if drop {
		// mq_send reports only queue-level failures; a message lost in
		// transit looks like success to the sender.
		k.putBuf(msg.Data)
		return self.errOut(nil), machine.DispositionContinue
	}
	if delay > 0 {
		// Delayed delivery is asynchronous: the sender continues, the
		// message lands when the delay elapses (lost if the queue is full
		// then — delay plus backpressure exceeds the fault model).
		k.m.Clock().After(delay, func() {
			if k.mqs[q.name] != q {
				return
			}
			k.deliverToQueue(e.send, q, msg)
		})
		return self.errOut(nil), machine.DispositionContinue
	}
	// A blocked reader consumes the message directly.
	if reader := k.popReader(q); reader != nil {
		k.stats.MQSends++
		k.stats.MQReceives++
		k.m.IPC().Record(e.send)
		k.m.IPC().Record(reader.recvEdge)
		k.tracer.Emit(e.mqSend, obs.OutcomeDelivered)
		k.endSpan(reader, obs.OutcomeDelivered)
		reader.phase = phaseIdle
		reader.waitToken++
		k.mustReady(reader.pid, k.deliverMsg(reader, msg))
		return self.errOut(nil), machine.DispositionContinue
	}
	if len(q.msgs) >= q.maxMsgs {
		if f.nonblock {
			k.putBuf(msg.Data)
			return self.errOut(ErrAgain), machine.DispositionContinue
		}
		self.phase = phaseMQSend
		self.span = k.tracer.Begin(e.mqSend)
		q.writers = append(q.writers, blockedWriter{pid: self.pid, msg: msg, send: e.send})
		return nil, machine.DispositionBlock
	}
	k.stats.MQSends++
	k.m.IPC().Record(e.send)
	k.tracer.Emit(e.mqSend, obs.OutcomeDelivered)
	insertByPrio(q, msg)
	q.depth.Set(int64(len(q.msgs)))
	return self.errOut(nil), machine.DispositionContinue
}

// doMQReceive implements mq_receive: highest priority first, block when
// empty.
func (k *Kernel) doMQReceive(self *proc, rfd int32) (any, machine.Disposition) {
	k.mRecvsC.Inc()
	f, ok := self.fds[rfd]
	if !ok || !f.canRead {
		return self.msgErr(ErrBadFD), machine.DispositionContinue
	}
	q := f.q
	if len(q.msgs) > 0 {
		msg := q.msgs[0]
		// Shift down instead of re-slicing: the [1:] form burns capacity,
		// so a fill/drain cycle would re-allocate on every insert.
		copy(q.msgs, q.msgs[1:])
		q.msgs[len(q.msgs)-1] = MQMsg{}
		q.msgs = q.msgs[:len(q.msgs)-1]
		k.stats.MQReceives++
		k.m.IPC().Record(f.edges.recv)
		k.tracer.Emit(f.edges.mqReceive, obs.OutcomeDelivered)
		// Unblock one writer into the freed slot.
		if w, ok := k.popWriter(q); ok {
			insertByPrio(q, w.msg)
			k.stats.MQSends++
			wp := k.procs[w.pid]
			k.m.IPC().Record(w.send)
			k.endSpan(wp, obs.OutcomeDelivered)
			wp.phase = phaseIdle
			wp.waitToken++
			k.mustReady(w.pid, wp.errOut(nil))
		}
		q.depth.Set(int64(len(q.msgs)))
		return k.deliverMsg(self, msg), machine.DispositionContinue
	}
	if f.nonblock {
		return self.msgErr(ErrAgain), machine.DispositionContinue
	}
	self.phase = phaseMQRecv
	self.span = k.tracer.Begin(f.edges.mqReceive)
	self.recvEdge = f.edges.recv
	q.readers = append(q.readers, self.pid)
	return nil, machine.DispositionBlock
}

// doMQReceiveTimeout is mq_timedreceive: MQReceive that gives up with
// ErrTimeout after d of virtual time with no message.
func (k *Kernel) doMQReceiveTimeout(self *proc, r *mqReceiveTimeoutReq) (any, machine.Disposition) {
	reply, disp := k.doMQReceive(self, r.fd)
	if disp == machine.DispositionContinue {
		return reply, disp
	}
	// Blocked: doMQReceive queued the reader; arm the expiry alongside.
	self.waitQ = self.fds[r.fd].q
	self.waitToken++
	k.m.Clock().AfterToken(r.d, self.onRecvTimeout, self.waitToken)
	return nil, machine.DispositionBlock
}

// deliverToQueue lands one message on a queue outside the sender's trap
// (delayed delivery): a waiting reader gets it directly, otherwise it queues;
// a full queue loses it.
func (k *Kernel) deliverToQueue(send obs.EdgeID, q *mqueue, msg MQMsg) {
	if reader := k.popReader(q); reader != nil {
		k.stats.MQSends++
		k.stats.MQReceives++
		k.m.IPC().Record(send)
		k.m.IPC().Record(reader.recvEdge)
		k.endSpan(reader, obs.OutcomeDelivered)
		reader.phase = phaseIdle
		reader.waitToken++
		k.mustReady(reader.pid, k.deliverMsg(reader, msg))
		return
	}
	if len(q.msgs) >= q.maxMsgs {
		return
	}
	k.stats.MQSends++
	k.m.IPC().Record(send)
	insertByPrio(q, msg)
	q.depth.Set(int64(len(q.msgs)))
}

// doRespawn implements the supervisor syscall: spawn a registered image
// under its *declared* credentials (unlike fork, which inherits the
// caller's). Root only — supervision is a privileged duty, the way
// supervisord runs as root; unprivileged callers are denied and audited.
func (k *Kernel) doRespawn(self *proc, r *respawnReq) (any, machine.Disposition) {
	if self.uid != 0 {
		k.dacDeny(obs.EventSyscallDenied, self.name, r.image, fmt.Sprintf("respawn uid=%d", self.uid))
		return self.intOut(0, fmt.Errorf("%w: respawn %q", ErrPerm, r.image)), machine.DispositionContinue
	}
	img, ok := k.images[r.image]
	if !ok {
		return self.intOut(0, fmt.Errorf("%w: %q", ErrUnknownImage, r.image)), machine.DispositionContinue
	}
	for _, p := range k.byUnix {
		if p.name == r.image {
			return self.intOut(0, fmt.Errorf("%w: %q is running", ErrExist, r.image)), machine.DispositionContinue
		}
	}
	unixPID, err := k.spawn(img)
	if err != nil {
		return self.intOut(0, err), machine.DispositionContinue
	}
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventRestart,
		Mechanism: obs.MechRecovery,
		Src:       self.name,
		Dst:       r.image,
		Detail:    fmt.Sprintf("respawn #%d", k.spawnCounts[r.image]-1),
	})
	return self.intOut(unixPID, nil), machine.DispositionContinue
}

// doMQUnlink implements mq_unlink: owner or root only.
func (k *Kernel) doMQUnlink(self *proc, r *mqUnlinkReq) (any, machine.Disposition) {
	q, ok := k.mqs[r.name]
	if !ok {
		return self.errOut(fmt.Errorf("%w: queue %q", ErrNoEnt, r.name)), machine.DispositionContinue
	}
	if self.uid != 0 && self.uid != q.ownerUID {
		k.dacDeny(obs.EventSyscallDenied, self.name, r.name, fmt.Sprintf("mq_unlink uid=%d owner=%d", self.uid, q.ownerUID))
		return self.errOut(fmt.Errorf("%w: unlink %q", ErrPerm, r.name)), machine.DispositionContinue
	}
	delete(k.mqs, r.name)
	q.depth.Set(0)
	// Blocked parties get ENOENT, like a destroyed queue.
	for _, pid := range q.readers {
		if p := k.procs[pid]; p != nil && p.phase == phaseMQRecv {
			p.phase = phaseIdle
			k.endSpan(p, obs.OutcomeAborted)
			k.mustReady(pid, p.msgErr(fmt.Errorf("%w: queue %q unlinked", ErrNoEnt, r.name)))
		}
	}
	for _, w := range q.writers {
		if p := k.procs[w.pid]; p != nil && p.phase == phaseMQSend {
			p.phase = phaseIdle
			k.endSpan(p, obs.OutcomeAborted)
			k.mustReady(w.pid, p.errOut(fmt.Errorf("%w: queue %q unlinked", ErrNoEnt, r.name)))
		}
	}
	q.readers, q.writers = nil, nil
	return self.errOut(nil), machine.DispositionContinue
}

// doKill implements kill(2): same-uid or root.
func (k *Kernel) doKill(self *proc, r *killReq) (any, machine.Disposition) {
	victim, ok := k.byUnix[r.unixPID]
	if !ok {
		return self.errOut(fmt.Errorf("%w: pid %d", ErrNoEnt, r.unixPID)), machine.DispositionContinue
	}
	if self.uid != 0 && self.uid != victim.uid {
		d := k.denialFor(denialKey{op: "kill", src: self.name, uid: self.uid, pid: r.unixPID, sig: r.sig}, func() denial {
			return denial{
				detail: fmt.Sprintf("kill pid %d sig %d uid=%d", r.unixPID, r.sig, self.uid),
				trace:  fmt.Sprintf("DENY kill %d by %s (uid %d)", r.unixPID, self.name, self.uid),
				err:    fmt.Errorf("%w: kill %d", ErrPerm, r.unixPID),
			}
		})
		k.dacDeny(obs.EventKillDenied, self.name, victim.name, d.detail)
		k.m.Trace().Log("linux-dac", d.trace)
		return self.errOut(d.err), machine.DispositionContinue
	}
	if r.sig != SIGKILL && r.sig != SIGTERM {
		// Non-terminating signals are absorbed.
		return self.errOut(nil), machine.DispositionContinue
	}
	k.stats.Kills++
	k.mKills.Inc()
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventKill,
		Mechanism: obs.MechDAC,
		Src:       self.name,
		Dst:       victim.name,
		Detail:    fmt.Sprintf("uid-authorized kill sig=%d", r.sig),
	})
	k.m.Trace().Logf("linux", "kill %s (pid %d) by %s sig=%d", victim.name, victim.unixPID, self.name, r.sig)
	if err := k.m.Engine().Kill(victim.pid); err != nil {
		return self.errOut(err), machine.DispositionContinue
	}
	return self.errOut(nil), machine.DispositionContinue
}

func (k *Kernel) doSleep(self *proc, r *sleepReq) (any, machine.Disposition) {
	self.phase = phaseSleeping
	self.waitToken++
	k.m.Clock().AfterToken(r.d, self.onSleep, self.waitToken)
	return nil, machine.DispositionBlock
}

// buildWakers builds p's reusable sleep and mq_timedreceive timer
// callbacks. Each firing carries the token of the wait that armed it; a
// token that is no longer p's waitToken, or a p no longer in the process
// table (it died, and OnProcExit bumped the token too), makes the firing a
// no-op, so a pending timer of a dead process never wakes another.
func (k *Kernel) buildWakers(p *proc) {
	p.onSleep = func(token uint64) {
		if k.procs[p.pid] != p || p.waitToken != token || p.phase != phaseSleeping {
			return
		}
		p.phase = phaseIdle
		k.mustReady(p.pid, p.errOut(nil))
	}
	p.onRecvTimeout = func(token uint64) {
		if k.procs[p.pid] != p || p.waitToken != token || p.phase != phaseMQRecv {
			return
		}
		p.phase = phaseIdle
		p.waitToken++
		q := p.waitQ
		for i, rp := range q.readers {
			if rp == p.pid {
				q.readers = append(q.readers[:i], q.readers[i+1:]...)
				break
			}
		}
		k.endSpan(p, obs.OutcomeAborted)
		k.mustReady(p.pid, p.msgErr(ErrTimeout))
	}
}

// popReader dequeues the next still-blocked reader.
func (k *Kernel) popReader(q *mqueue) *proc {
	for len(q.readers) > 0 {
		pid := q.readers[0]
		copy(q.readers, q.readers[1:])
		q.readers = q.readers[:len(q.readers)-1]
		if p := k.procs[pid]; p != nil && p.phase == phaseMQRecv {
			return p
		}
	}
	return nil
}

// popWriter dequeues the next still-blocked writer.
func (k *Kernel) popWriter(q *mqueue) (blockedWriter, bool) {
	for len(q.writers) > 0 {
		w := q.writers[0]
		copy(q.writers, q.writers[1:])
		q.writers[len(q.writers)-1] = blockedWriter{}
		q.writers = q.writers[:len(q.writers)-1]
		if p := k.procs[w.pid]; p != nil && p.phase == phaseMQSend {
			return w, true
		}
	}
	return blockedWriter{}, false
}

// insertByPrio inserts keeping the queue sorted by descending priority,
// FIFO within a priority (POSIX semantics).
func insertByPrio(q *mqueue, msg MQMsg) {
	i := len(q.msgs)
	for i > 0 && q.msgs[i-1].Prio < msg.Prio {
		i--
	}
	q.msgs = append(q.msgs, MQMsg{})
	copy(q.msgs[i+1:], q.msgs[i:])
	q.msgs[i] = msg
}

// OnProcExit implements machine.TrapHandler.
func (k *Kernel) OnProcExit(pid machine.PID, info machine.ExitInfo) {
	p, ok := k.procs[pid]
	if !ok {
		return
	}
	if info.Crashed {
		k.m.Trace().Logf("linux", "SEGFAULT %s: %v", p.name, info.PanicValue)
	}
	k.endSpan(p, obs.OutcomeAborted)
	delete(k.procs, pid)
	delete(k.byUnix, p.unixPID)
	p.waitToken++
	// Drop the dead process from queue wait lists.
	for _, q := range k.mqs {
		for i, rp := range q.readers {
			if rp == pid {
				q.readers = append(q.readers[:i], q.readers[i+1:]...)
				break
			}
		}
		for i, w := range q.writers {
			if w.pid == pid {
				q.writers = append(q.writers[:i], q.writers[i+1:]...)
				break
			}
		}
	}
	if k.cfg.Net != nil {
		for _, l := range p.listeners {
			k.cfg.Net.CloseListener(l)
		}
		for _, c := range p.conns {
			k.cfg.Net.BoardClose(c)
		}
	}
}

func (k *Kernel) mustReady(pid machine.PID, reply any) {
	if err := k.m.Engine().Ready(pid, reply); err != nil {
		panic(fmt.Sprintf("linuxsim: Ready(%d): %v", pid, err))
	}
}

// --- Network ----------------------------------------------------------------

func (k *Kernel) doNetListen(self *proc, r *netListenReq) (any, machine.Disposition) {
	if k.cfg.Net == nil {
		return self.handleOut(0, fmt.Errorf("%w: no network", ErrNoEnt)), machine.DispositionContinue
	}
	l, err := k.cfg.Net.Listen(r.port)
	if err != nil {
		return self.handleOut(0, err), machine.DispositionContinue
	}
	self.nextFD++
	h := self.nextFD
	self.listeners[h] = l
	return self.handleOut(h, nil), machine.DispositionContinue
}

func (k *Kernel) doNetAccept(self *proc, r *netAcceptReq) (any, machine.Disposition) {
	l, ok := self.listeners[r.listener]
	if !ok {
		return self.handleOut(0, ErrBadFD), machine.DispositionContinue
	}
	conn, err := k.cfg.Net.Accept(l)
	switch {
	case err == nil:
		self.nextFD++
		h := self.nextFD
		self.conns[h] = conn
		return self.handleOut(h, nil), machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		self.phase = phaseNet
		self.waitToken++
		token := self.waitToken
		pid := self.pid
		k.cfg.Net.WaitConn(l, func() {
			p := k.procs[pid]
			if p != self || p.waitToken != token || p.phase != phaseNet {
				return
			}
			p.phase = phaseIdle
			conn, acceptErr := k.cfg.Net.Accept(l)
			if acceptErr != nil {
				k.mustReady(pid, p.handleOut(0, acceptErr))
				return
			}
			p.nextFD++
			h := p.nextFD
			p.conns[h] = conn
			k.mustReady(pid, p.handleOut(h, nil))
		})
		return nil, machine.DispositionBlock
	default:
		return self.handleOut(0, err), machine.DispositionContinue
	}
}

func (k *Kernel) doNetRead(self *proc, r *netReadReq) (any, machine.Disposition) {
	conn, ok := self.conns[r.conn]
	if !ok {
		return self.bytesOut(nil, ErrBadFD), machine.DispositionContinue
	}
	data, err := k.cfg.Net.BoardRead(conn, r.max)
	switch {
	case err == nil:
		return self.bytesOut(data, nil), machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		self.phase = phaseNet
		self.waitToken++
		token := self.waitToken
		pid := self.pid
		maxBytes := r.max
		k.cfg.Net.WaitReadable(conn, func() {
			p := k.procs[pid]
			if p != self || p.waitToken != token || p.phase != phaseNet {
				return
			}
			p.phase = phaseIdle
			data, readErr := k.cfg.Net.BoardRead(conn, maxBytes)
			k.mustReady(pid, p.bytesOut(data, readErr))
		})
		return nil, machine.DispositionBlock
	default:
		return self.bytesOut(nil, err), machine.DispositionContinue
	}
}

func (k *Kernel) doNetWrite(self *proc, r *netWriteReq) (any, machine.Disposition) {
	conn, ok := self.conns[r.conn]
	if !ok {
		return self.errOut(ErrBadFD), machine.DispositionContinue
	}
	return self.errOut(k.cfg.Net.BoardWrite(conn, r.data)), machine.DispositionContinue
}

func (k *Kernel) doNetClose(self *proc, r *netCloseReq) (any, machine.Disposition) {
	conn, ok := self.conns[r.conn]
	if !ok {
		return self.errOut(ErrBadFD), machine.DispositionContinue
	}
	delete(self.conns, r.conn)
	k.cfg.Net.BoardClose(conn)
	return self.errOut(nil), machine.DispositionContinue
}
