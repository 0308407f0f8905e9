package sel4

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// Trap request and reply types (the syscall wire format).
type (
	sendTrap struct {
		cptr CPtr
		msg  Msg
		nb   bool
	}
	recvTrap struct {
		cptr CPtr
		nb   bool
	}
	callTrap struct {
		cptr CPtr
		msg  Msg
	}
	replyTrap struct {
		msg Msg
	}
	tcbSuspendTrap struct {
		cptr CPtr
	}
	capCopyTrap struct {
		src, dst CPtr
	}
	capMintTrap struct {
		src, dst CPtr
		badge    Badge
		rights   Rights
	}
	capDeleteTrap struct {
		slot CPtr
	}
	devReadTrap struct {
		cptr CPtr
		reg  uint32
	}
	devWriteTrap struct {
		cptr  CPtr
		reg   uint32
		value uint32
	}
	sleepTrap struct {
		d time.Duration
	}
	traceTrap struct {
		tag, text string
	}
	netListenTrap struct {
		cptr CPtr
	}
	netAcceptTrap struct {
		listener int32
	}
	netReadTrap struct {
		conn int32
		max  int
	}
	netWriteTrap struct {
		conn int32
		data []byte
	}
	netCloseTrap struct {
		conn int32
	}
)

type (
	errResult struct {
		err error
	}
	recvResultReply struct {
		res RecvResult
		err error
	}
	callResultReply struct {
		msg Msg
		err error
	}
	u32Result struct {
		value uint32
		err   error
	}
	handleResult struct {
		handle int32
		err    error
	}
	bytesResult struct {
		data []byte
		err  error
	}
)

// HandleTrap implements machine.TrapHandler.
func (k *Kernel) HandleTrap(pid machine.PID, req any) (any, machine.Disposition) {
	t := k.tcbOf(pid)
	switch r := req.(type) {
	case *sendTrap:
		return k.doSend(t, r)
	case *recvTrap:
		return k.doRecv(t, r)
	case *callTrap:
		return k.doCall(t, r)
	case *replyTrap:
		return k.doReply(t, r)
	case *tcbSuspendTrap:
		return k.doSuspend(t, r)
	case *signalTrap:
		return k.doSignal(t, r)
	case *waitTrap:
		return k.doWait(t, r)
	case *capCopyTrap:
		return k.doCapCopy(t, r.src, r.dst, nil, nil)
	case *capMintTrap:
		return k.doCapCopy(t, r.src, r.dst, &r.badge, &r.rights)
	case *capDeleteTrap:
		if int(r.slot) >= CSpaceSize {
			return t.errOut(fmt.Errorf("%w: %d", ErrBadSlot, r.slot)), machine.DispositionContinue
		}
		t.cspace[r.slot] = Capability{}
		return t.errOut(nil), machine.DispositionContinue
	case *devReadTrap:
		c, err := k.lookupCap(t, r.cptr, KindDevice, CapRead)
		if err != nil {
			return t.u32Out(0, err), machine.DispositionContinue
		}
		v, err := k.m.Bus().Read(k.devs[c.Object].dev, r.reg)
		return t.u32Out(v, err), machine.DispositionContinue
	case *devWriteTrap:
		c, err := k.lookupCap(t, r.cptr, KindDevice, CapWrite)
		if err != nil {
			return t.errOut(err), machine.DispositionContinue
		}
		return t.errOut(k.m.Bus().Write(k.devs[c.Object].dev, r.reg, r.value)), machine.DispositionContinue
	case *sleepTrap:
		return k.doSleep(t, r)
	case *traceTrap:
		k.m.Trace().Log(r.tag, r.text)
		return t.errOut(nil), machine.DispositionContinue
	case *netListenTrap:
		return k.doNetListen(t, r)
	case *netAcceptTrap:
		return k.doNetAccept(t, r)
	case *netReadTrap:
		return k.doNetRead(t, r)
	case *netWriteTrap:
		return k.doNetWrite(t, r)
	case *netCloseTrap:
		return k.doNetClose(t, r)
	default:
		return t.errOut(fmt.Errorf("sel4: unknown trap %T", req)), machine.DispositionContinue
	}
}

// doSend implements seL4_Send / seL4_NBSend.
func (k *Kernel) doSend(t *tcb, r *sendTrap) (any, machine.Disposition) {
	k.mSends.Inc()
	c, err := k.lookupCap(t, r.cptr, KindEndpoint, CapWrite)
	if err != nil {
		return t.errOut(err), machine.DispositionContinue
	}
	if r.msg.TransferCap != nil && !c.Rights.Has(CapGrant) {
		k.stats.RightsDenied++
		k.mRightsDenied.Inc()
		k.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventCapFault,
			Mechanism: obs.MechCapability,
			Denied:    true,
			Src:       t.name,
			Dst:       k.objName(c.Object),
			Detail:    "cap transfer needs grant",
		})
		return t.errOut(fmt.Errorf("%w: cap transfer needs grant", ErrNoRights)), machine.DispositionContinue
	}
	ep := k.eps[c.Object]
	drop, delay := k.faultFor(t.name, ep.name)
	if drop {
		// Send has no delivery acknowledgment: a lost message is
		// indistinguishable from a successful one on the sender side.
		return t.errOut(nil), machine.DispositionContinue
	}
	if delay > 0 {
		t.sendMsg = r.msg
		t.sendCap = c
		t.wantsCall = false
		return k.delaySend(t, c, ep, r.msg, false, delay)
	}
	if receiver := k.popReceiver(ep); receiver != nil {
		k.deliver(t, c, receiver, r.msg, false)
		return t.errOut(nil), machine.DispositionContinue
	}
	if r.nb {
		// seL4_NBSend silently drops when no receiver is waiting.
		return t.errOut(nil), machine.DispositionContinue
	}
	t.state = stateBlockedSend
	t.sendMsg = r.msg
	t.sendCap = c
	t.wantsCall = false
	ep.sendQ = append(ep.sendQ, t)
	k.mEPQ.Add(1)
	return nil, machine.DispositionBlock
}

// delaySend parks a sender whose message is being delayed in transit by
// fault injection: the sender blocks as usual but joins the endpoint's send
// queue only when the delay elapses, so receivers cannot see the message
// early.
func (k *Kernel) delaySend(t *tcb, c Capability, ep *endpointObj, msg Msg, isCall bool, delay time.Duration) (any, machine.Disposition) {
	t.state = stateBlockedSend
	t.waitToken++
	token := t.waitToken
	pid := t.pid
	k.m.Clock().After(delay, func() {
		cur := k.byPID[pid]
		if cur != t || cur.waitToken != token || cur.state != stateBlockedSend {
			return
		}
		if receiver := k.popReceiver(ep); receiver != nil {
			k.deliver(t, c, receiver, msg, isCall)
			if isCall {
				t.state = stateBlockedCall
				return
			}
			t.state = stateReady
			k.mustReady(pid, t.errOut(nil))
			return
		}
		ep.sendQ = append(ep.sendQ, t)
		k.mEPQ.Add(1)
	})
	return nil, machine.DispositionBlock
}

// doCall implements seL4_Call: atomic send + receive-reply. Per the paper,
// Call requires the grant right ("if a thread is given grant access to an
// endpoint it can use seL4_Call") because it attaches a one-time reply
// capability to the message.
func (k *Kernel) doCall(t *tcb, r *callTrap) (any, machine.Disposition) {
	k.mCalls.Inc()
	c, err := k.lookupCap(t, r.cptr, KindEndpoint, CapWrite|CapGrant)
	if err != nil {
		k.tracer.Emit(k.edges.Intern(t.name, "", "call"), obs.OutcomeCapFault)
		return t.callOut(Msg{}, err), machine.DispositionContinue
	}
	k.stats.Calls++
	ep := k.eps[c.Object]
	// The round-trip span stays open until Reply (or abort) wakes the
	// caller.
	t.span = k.tracer.Begin(k.edgesOf(t, c.Object).call)
	t.sendMsg = r.msg
	t.sendCap = c
	t.wantsCall = true
	drop, delay := k.faultFor(t.name, ep.name)
	if drop {
		// A lost Call is observable: the caller expected a reply that will
		// never come, so it gets an error instead of blocking forever.
		k.endSpan(t, obs.OutcomeAborted)
		t.wantsCall = false
		return t.callOut(Msg{}, ErrMsgLost), machine.DispositionContinue
	}
	if delay > 0 {
		return k.delaySend(t, c, ep, r.msg, true, delay)
	}
	if receiver := k.popReceiver(ep); receiver != nil {
		k.deliver(t, c, receiver, r.msg, true)
		t.state = stateBlockedCall
		return nil, machine.DispositionBlock
	}
	t.state = stateBlockedSend
	ep.sendQ = append(ep.sendQ, t)
	k.mEPQ.Add(1)
	return nil, machine.DispositionBlock
}

// doRecv implements seL4_Recv / seL4_NBRecv.
func (k *Kernel) doRecv(t *tcb, r *recvTrap) (any, machine.Disposition) {
	k.mRecvs.Inc()
	c, err := k.lookupCap(t, r.cptr, KindEndpoint, CapRead)
	if err != nil {
		return t.recvOut(RecvResult{}, err), machine.DispositionContinue
	}
	ep := k.eps[c.Object]
	if sender := k.popSender(ep); sender != nil {
		res := k.buildDelivery(sender, sender.sendCap, t, sender.sendMsg, sender.wantsCall)
		if sender.wantsCall {
			sender.state = stateBlockedCall
		} else {
			sender.state = stateReady
			k.mustReady(sender.pid, sender.errOut(nil))
		}
		return t.recvOut(res, nil), machine.DispositionContinue
	}
	if r.nb {
		return t.recvOut(RecvResult{}, ErrWouldBlock), machine.DispositionContinue
	}
	t.state = stateBlockedRecv
	ep.recvQ = append(ep.recvQ, t)
	k.mEPQ.Add(1)
	return nil, machine.DispositionBlock
}

// doReply implements seL4_Reply using the thread's one-time reply capability.
func (k *Kernel) doReply(t *tcb, r *replyTrap) (any, machine.Disposition) {
	rc := t.replyCap
	if rc == nil || rc.used {
		return t.errOut(ErrNoReplyCap), machine.DispositionContinue
	}
	rc.used = true
	t.replyCap = nil
	caller := rc.caller
	if caller == nil || caller.state != stateBlockedCall {
		// Caller died or was aborted; the reply evaporates.
		return t.errOut(nil), machine.DispositionContinue
	}
	k.stats.Replies++
	k.stats.IPCDelivered++
	k.mReplies.Inc()
	k.mDelivered.Inc()
	caller.state = stateReady
	k.endSpan(caller, obs.OutcomeDelivered)
	k.mustReady(caller.pid, caller.callOut(r.msg, nil))
	return t.errOut(nil), machine.DispositionContinue
}

// deliver wakes a blocked receiver with the sender's message.
func (k *Kernel) deliver(sender *tcb, senderCap Capability, receiver *tcb, msg Msg, isCall bool) {
	res := k.buildDelivery(sender, senderCap, receiver, msg, isCall)
	receiver.state = stateReady
	receiver.waitToken++
	k.mustReady(receiver.pid, receiver.recvOut(res, nil))
}

// buildDelivery constructs the receiver-side result: badge, transferred
// capability, and (for calls) the reply capability installed on the
// receiver.
func (k *Kernel) buildDelivery(sender *tcb, senderCap Capability, receiver *tcb, msg Msg, isCall bool) RecvResult {
	k.stats.IPCDelivered++
	k.mDelivered.Inc()
	// Record the delivery through its endpoint for the least-privilege
	// audit: the sender exercised its send cap, the receiver its recv cap.
	k.m.IPC().Record(k.edgesOf(sender, senderCap.Object).out)
	k.m.IPC().Record(k.edgesOf(receiver, senderCap.Object).in)
	res := RecvResult{Msg: msg, Badge: senderCap.Badge}
	res.Msg.TransferCap = nil
	if msg.TransferCap != nil {
		moved := sender.cspace[*msg.TransferCap]
		if !moved.IsNull() {
			if slot, ok := freeSlot(receiver); ok {
				receiver.cspace[slot] = moved
				res.CapSlot = &slot
				k.stats.CapsTransferred++
				k.m.Trace().Logf("sel4", "cap transfer %v from %s to %s slot %d",
					moved, sender.name, receiver.name, slot)
			}
		}
	}
	if isCall {
		receiver.replyScratch = replyObj{caller: sender}
		receiver.replyCap = &receiver.replyScratch
	}
	return res
}

// doSuspend implements the TCB_Suspend invocation: the "kill" of the seL4
// world. It requires a TCB capability with write rights — which the CAmkES
// scenario never distributes to the web interface.
func (k *Kernel) doSuspend(t *tcb, r *tcbSuspendTrap) (any, machine.Disposition) {
	c, f := k.lookup(t, r.cptr, KindTCB, CapWrite)
	if f != nil {
		// lookup emitted the cap-fault; this event classifies the attempt
		// as a blocked kill for the attack reports.
		if f.kill == "" {
			f.kill = fmt.Sprintf("TCB_Suspend: %v", f.err)
		}
		k.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventKillDenied,
			Mechanism: obs.MechCapability,
			Denied:    true,
			Src:       t.name,
			Detail:    f.kill,
		})
		return t.errOut(f.err), machine.DispositionContinue
	}
	victim, ok := k.tcbs[c.Object]
	if !ok || !victim.started || victim.suspended {
		return t.errOut(ErrSuspended), machine.DispositionContinue
	}
	k.stats.Suspends++
	k.mSuspends.Inc()
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventKill,
		Mechanism: obs.MechCapability,
		Src:       t.name,
		Dst:       victim.name,
		Detail:    "TCB_Suspend with write cap",
	})
	victim.suspended = true
	k.m.Trace().Logf("sel4", "suspend %s by %s", victim.name, t.name)
	if err := k.m.Engine().Kill(victim.pid); err != nil {
		return t.errOut(err), machine.DispositionContinue
	}
	return t.errOut(nil), machine.DispositionContinue
}

// doCapCopy implements CNode copy/mint within the caller's own CSpace.
// Minting may narrow rights and set a badge; it can never widen rights.
func (k *Kernel) doCapCopy(t *tcb, src, dst CPtr, badge *Badge, rights *Rights) (any, machine.Disposition) {
	if int(src) >= CSpaceSize || int(dst) >= CSpaceSize {
		return t.errOut(fmt.Errorf("%w: %d/%d", ErrBadSlot, src, dst)), machine.DispositionContinue
	}
	c := t.cspace[src]
	if c.IsNull() {
		k.stats.InvalidCapErrs++
		return t.errOut(fmt.Errorf("%w: slot %d", ErrInvalidCap, src)), machine.DispositionContinue
	}
	if !t.cspace[dst].IsNull() {
		return t.errOut(fmt.Errorf("%w: destination %d occupied", ErrBadSlot, dst)), machine.DispositionContinue
	}
	out := c
	if rights != nil {
		out.Rights = c.Rights & *rights // narrow only
	}
	if badge != nil {
		out.Badge = *badge
	}
	t.cspace[dst] = out
	return t.errOut(nil), machine.DispositionContinue
}

// doSleep parks the thread on the timer service (the paper's added timer
// driver processes, collapsed into a kernel-provided service here).
func (k *Kernel) doSleep(t *tcb, r *sleepTrap) (any, machine.Disposition) {
	t.state = stateSleeping
	t.waitToken++
	k.m.Clock().AfterToken(r.d, t.onSleep, t.waitToken)
	return nil, machine.DispositionBlock
}

// buildWaker builds t's reusable sleep timer callback. Each firing carries
// the token of the sleep that armed it; a token that is no longer t's
// waitToken, or a t no longer running under its PID, makes the firing a
// no-op.
func (k *Kernel) buildWaker(t *tcb) {
	t.onSleep = func(token uint64) {
		if k.byPID[t.pid] != t || t.waitToken != token || t.state != stateSleeping {
			return
		}
		t.state = stateReady
		k.mustReady(t.pid, t.errOut(nil))
	}
}

// popReceiver dequeues the next live receiver from an endpoint. Every
// dequeued entry — live or stale — left the wait queues, so the depth
// gauge drops per removal, mirroring the increment at append time.
func (k *Kernel) popReceiver(ep *endpointObj) *tcb {
	for len(ep.recvQ) > 0 {
		r := ep.recvQ[0]
		// Shift down instead of re-slicing: the [1:] form burns capacity, so
		// a block/wake cycle would re-allocate the queue on every append.
		copy(ep.recvQ, ep.recvQ[1:])
		ep.recvQ = ep.recvQ[:len(ep.recvQ)-1]
		k.mEPQ.Add(-1)
		if r.state == stateBlockedRecv {
			return r
		}
	}
	return nil
}

// popSender dequeues the next live sender from an endpoint.
func (k *Kernel) popSender(ep *endpointObj) *tcb {
	for len(ep.sendQ) > 0 {
		s := ep.sendQ[0]
		copy(ep.sendQ, ep.sendQ[1:])
		ep.sendQ = ep.sendQ[:len(ep.sendQ)-1]
		k.mEPQ.Add(-1)
		if s.state == stateBlockedSend {
			return s
		}
	}
	return nil
}

// OnProcExit implements machine.TrapHandler: scrub the dead thread from all
// wait queues and abort callers waiting on its reply capability.
func (k *Kernel) OnProcExit(pid machine.PID, info machine.ExitInfo) {
	t, ok := k.byPID[pid]
	if !ok {
		return
	}
	delete(k.byPID, pid)
	t.waitToken++
	prevState := t.state
	t.state = stateSuspendedDead
	if info.Crashed {
		k.m.Trace().Logf("sel4", "FAULT %s: %v", t.name, info.PanicValue)
	}
	_ = prevState
	k.endSpan(t, obs.OutcomeAborted)

	// Remove from endpoint and notification queues.
	for _, ep := range k.eps {
		before := len(ep.sendQ) + len(ep.recvQ)
		ep.sendQ = removeTCB(ep.sendQ, t)
		ep.recvQ = removeTCB(ep.recvQ, t)
		k.mEPQ.Add(int64(len(ep.sendQ) + len(ep.recvQ) - before))
	}
	for _, n := range k.notifs {
		n.waitQ = removeTCB(n.waitQ, t)
	}
	// Abort a caller waiting on this thread's pending reply capability.
	if t.replyCap != nil && !t.replyCap.used {
		t.replyCap.used = true
		caller := t.replyCap.caller
		if caller != nil && caller.state == stateBlockedCall {
			caller.state = stateReady
			k.endSpan(caller, obs.OutcomeAborted)
			k.mustReady(caller.pid, caller.callOut(Msg{}, ErrCallAborted))
		}
		t.replyCap = nil
	}
	// Release network resources.
	if k.cfg.Net != nil {
		for _, l := range t.listeners {
			k.cfg.Net.CloseListener(l)
		}
		for _, c := range t.conns {
			k.cfg.Net.BoardClose(c)
		}
	}
}

func removeTCB(q []*tcb, t *tcb) []*tcb {
	for i, x := range q {
		if x == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// mustReady wakes a thread the kernel knows is blocked.
func (k *Kernel) mustReady(pid machine.PID, reply any) {
	if err := k.m.Engine().Ready(pid, reply); err != nil {
		panic(fmt.Sprintf("sel4: Ready(%d): %v", pid, err))
	}
}

// --- Network mediation ------------------------------------------------------

func (k *Kernel) doNetListen(t *tcb, r *netListenTrap) (any, machine.Disposition) {
	c, err := k.lookupCap(t, r.cptr, KindNetPort, CapRead)
	if err != nil {
		return t.handleOut(0, err), machine.DispositionContinue
	}
	if k.cfg.Net == nil {
		return t.handleOut(0, fmt.Errorf("%w: board has no network", ErrInvalidCap)), machine.DispositionContinue
	}
	l, err := k.cfg.Net.Listen(k.ports[c.Object].port)
	if err != nil {
		return t.handleOut(0, err), machine.DispositionContinue
	}
	t.nextHandle++
	h := t.nextHandle
	t.listeners[h] = l
	return t.handleOut(h, nil), machine.DispositionContinue
}

func (k *Kernel) doNetAccept(t *tcb, r *netAcceptTrap) (any, machine.Disposition) {
	l, ok := t.listeners[r.listener]
	if !ok {
		return t.handleOut(0, ErrBadHandle), machine.DispositionContinue
	}
	conn, err := k.cfg.Net.Accept(l)
	switch {
	case err == nil:
		t.nextHandle++
		h := t.nextHandle
		t.conns[h] = conn
		return t.handleOut(h, nil), machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		t.state = stateNetBlocked
		t.waitToken++
		token := t.waitToken
		pid := t.pid
		k.cfg.Net.WaitConn(l, func() {
			cur := k.byPID[pid]
			if cur != t || cur.waitToken != token || cur.state != stateNetBlocked {
				return
			}
			cur.state = stateReady
			conn, acceptErr := k.cfg.Net.Accept(l)
			if acceptErr != nil {
				k.mustReady(pid, cur.handleOut(0, acceptErr))
				return
			}
			cur.nextHandle++
			h := cur.nextHandle
			cur.conns[h] = conn
			k.mustReady(pid, cur.handleOut(h, nil))
		})
		return nil, machine.DispositionBlock
	default:
		return t.handleOut(0, err), machine.DispositionContinue
	}
}

func (k *Kernel) doNetRead(t *tcb, r *netReadTrap) (any, machine.Disposition) {
	conn, ok := t.conns[r.conn]
	if !ok {
		return t.bytesOut(nil, ErrBadHandle), machine.DispositionContinue
	}
	data, err := k.cfg.Net.BoardRead(conn, r.max)
	switch {
	case err == nil:
		return t.bytesOut(data, nil), machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		t.state = stateNetBlocked
		t.waitToken++
		token := t.waitToken
		pid := t.pid
		maxBytes := r.max
		k.cfg.Net.WaitReadable(conn, func() {
			cur := k.byPID[pid]
			if cur != t || cur.waitToken != token || cur.state != stateNetBlocked {
				return
			}
			cur.state = stateReady
			data, readErr := k.cfg.Net.BoardRead(conn, maxBytes)
			k.mustReady(pid, cur.bytesOut(data, readErr))
		})
		return nil, machine.DispositionBlock
	default:
		return t.bytesOut(nil, err), machine.DispositionContinue
	}
}

func (k *Kernel) doNetWrite(t *tcb, r *netWriteTrap) (any, machine.Disposition) {
	conn, ok := t.conns[r.conn]
	if !ok {
		return t.errOut(ErrBadHandle), machine.DispositionContinue
	}
	return t.errOut(k.cfg.Net.BoardWrite(conn, r.data)), machine.DispositionContinue
}

func (k *Kernel) doNetClose(t *tcb, r *netCloseTrap) (any, machine.Disposition) {
	conn, ok := t.conns[r.conn]
	if !ok {
		return t.errOut(ErrBadHandle), machine.DispositionContinue
	}
	delete(t.conns, r.conn)
	k.cfg.Net.BoardClose(conn)
	return t.errOut(nil), machine.DispositionContinue
}
