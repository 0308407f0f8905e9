package sel4

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// Trap numbers: the syscall wire format. Each trap reads its arguments from,
// and writes its reply into, the caller's frame as listed; a message travels
// in the message registers R1..R11 (see putMsg). Every trap can fail with an
// error in the frame's error slot.
const (
	trapSend       uint32 = iota + 1 // R0 endpoint cap, R1..R11 msg
	trapNBSend                       // as trapSend
	trapRecv                         // R0 endpoint cap → R0 badge, R1..R9 msg, R10 cap arrived, R11 its slot
	trapNBRecv                       // as trapRecv
	trapCall                         // R0 endpoint cap, R1..R11 msg → R1..R9 reply
	trapReply                        // R1..R9 reply
	trapTCBSuspend                   // R0 TCB cap
	trapSignal                       // R0 notification cap
	trapWait                         // R0 notification cap → R0 word
	trapPoll                         // as trapWait
	trapCapCopy                      // R0 source slot, R1 destination slot
	trapCapMint                      // R0 source slot, R1 destination slot, R2 badge, R3 rights
	trapCapDelete                    // R0 slot
	trapDevRead                      // R0 device cap, R1 register → R0 value
	trapDevWrite                     // R0 device cap, R1 register, R2 value
	trapSleep                        // R0 duration
	trapTrace                        // S0 tag, S1 text
	trapNetListen                    // R0 net-port cap → R0 listener
	trapNetAccept                    // R0 listener → R0 connection
	trapNetRead                      // R0 connection, R1 max → Buf data
	trapNetWrite                     // R0 connection, Buf data
	trapNetClose                     // R0 connection

	trapLimit // one past the highest trap number
)

// HandleTrap implements machine.TrapHandler: it dispatches on the trap
// number, reading the arguments from and writing the reply into f, the
// caller's frame.
func (k *Kernel) HandleTrap(pid machine.PID, f *machine.Frame) machine.Disposition {
	t := k.tcbOf(pid)
	switch f.Nr {
	case trapSend, trapNBSend:
		return k.doSend(t, f.Nr == trapNBSend)
	case trapRecv, trapNBRecv:
		return k.doRecv(t, f.Nr == trapNBRecv)
	case trapCall:
		return k.doCall(t)
	case trapReply:
		f.Err = k.doReply(t)
	case trapTCBSuspend:
		f.Err = k.doSuspend(t, CPtr(f.R[0]))
	case trapSignal:
		f.Err = k.doSignal(t, CPtr(f.R[0]))
	case trapWait, trapPoll:
		return k.doWait(t, f.Nr == trapPoll)
	case trapCapCopy, trapCapMint:
		f.Err = k.doCapCopy(t, CPtr(f.R[0]), CPtr(f.R[1]), f.Nr == trapCapMint, Badge(f.R[2]), Rights(f.R[3]))
	case trapCapDelete:
		slot := CPtr(f.R[0])
		if int(slot) >= CSpaceSize {
			f.Err = fmt.Errorf("%w: %d", ErrBadSlot, slot)
			break
		}
		t.cspace[slot] = Capability{}
	case trapDevRead:
		c, err := k.lookupCap(t, CPtr(f.R[0]), KindDevice, CapRead)
		if err != nil {
			f.Err = err
			break
		}
		v, err := k.m.Bus().Read(k.devs[c.Object].dev, uint32(f.R[1]))
		f.R[0], f.Err = uint64(v), err
	case trapDevWrite:
		c, err := k.lookupCap(t, CPtr(f.R[0]), KindDevice, CapWrite)
		if err != nil {
			f.Err = err
			break
		}
		f.Err = k.m.Bus().Write(k.devs[c.Object].dev, uint32(f.R[1]), uint32(f.R[2]))
	case trapSleep:
		t.state = stateSleeping
		t.waitToken++
		k.m.Clock().AfterToken(time.Duration(f.R[0]), t.onSleep, t.waitToken)
		return machine.DispositionBlock
	case trapTrace:
		k.m.Trace().Log(f.S0, f.S1)
	case trapNetListen:
		f.Err = k.doNetListen(t, f)
	case trapNetAccept:
		return k.doNetAccept(t, f)
	case trapNetRead:
		return k.doNetRead(t, f)
	case trapNetWrite:
		conn, ok := t.conns[int32(f.R[0])]
		if !ok {
			f.Err = ErrBadHandle
			break
		}
		f.Err = k.cfg.Net.BoardWrite(conn, f.Buf)
	case trapNetClose:
		h := int32(f.R[0])
		conn, ok := t.conns[h]
		if !ok {
			f.Err = ErrBadHandle
			break
		}
		delete(t.conns, h)
		k.cfg.Net.BoardClose(conn)
	default:
		f.Err = fmt.Errorf("sel4: unknown trap %d", f.Nr)
	}
	return machine.DispositionContinue
}

// doSend implements seL4_Send / seL4_NBSend. A sender that blocks leaves
// its message in its frame, where the receiver's delivery reads it.
func (k *Kernel) doSend(t *tcb, nb bool) machine.Disposition {
	k.mSends.Inc()
	f := t.frame
	c, err := k.lookupCap(t, CPtr(f.R[0]), KindEndpoint, CapWrite)
	if err != nil {
		f.Err = err
		return machine.DispositionContinue
	}
	if f.R[10] != 0 && !c.Rights.Has(CapGrant) {
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
		f.Err = fmt.Errorf("%w: cap transfer needs grant", ErrNoRights)
		return machine.DispositionContinue
	}
	ep := k.eps[c.Object]
	drop, delay := k.faultFor(t.name, ep.name)
	if drop {
		// Send has no delivery acknowledgment: a lost message is
		// indistinguishable from a successful one on the sender side.
		return machine.DispositionContinue
	}
	t.sendCap = c
	t.wantsCall = false
	if delay > 0 {
		return k.delaySend(t, c, ep, false, delay)
	}
	if receiver := k.popReceiver(ep); receiver != nil {
		k.deliver(t, c, receiver, false)
		return machine.DispositionContinue
	}
	if nb {
		// seL4_NBSend silently drops when no receiver is waiting.
		return machine.DispositionContinue
	}
	t.state = stateBlockedSend
	ep.sendQ = append(ep.sendQ, t)
	k.mEPQ.Add(1)
	return machine.DispositionBlock
}

// delaySend parks a sender whose message is being delayed in transit by
// fault injection: the sender blocks as usual but joins the endpoint's send
// queue only when the delay elapses, so receivers cannot see the message
// early.
func (k *Kernel) delaySend(t *tcb, c Capability, ep *endpointObj, isCall bool, delay time.Duration) machine.Disposition {
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
			k.deliver(t, c, receiver, isCall)
			if isCall {
				t.state = stateBlockedCall
				return
			}
			t.state = stateReady
			k.wake(t, nil)
			return
		}
		ep.sendQ = append(ep.sendQ, t)
		k.mEPQ.Add(1)
	})
	return machine.DispositionBlock
}

// doCall implements seL4_Call: atomic send + receive-reply. Per the paper,
// Call requires the grant right ("if a thread is given grant access to an
// endpoint it can use seL4_Call") because it attaches a one-time reply
// capability to the message.
func (k *Kernel) doCall(t *tcb) machine.Disposition {
	k.mCalls.Inc()
	f := t.frame
	c, err := k.lookupCap(t, CPtr(f.R[0]), KindEndpoint, CapWrite|CapGrant)
	if err != nil {
		k.tracer.Emit(k.edges.Intern(t.name, "", "call"), obs.OutcomeCapFault)
		f.Err = err
		return machine.DispositionContinue
	}
	k.stats.Calls++
	ep := k.eps[c.Object]
	// The round-trip span stays open until Reply (or abort) wakes the
	// caller.
	t.span = k.tracer.Begin(k.edgesOf(t, c.Object).call)
	t.sendCap = c
	t.wantsCall = true
	drop, delay := k.faultFor(t.name, ep.name)
	if drop {
		// A lost Call is observable: the caller expected a reply that will
		// never come, so it gets an error instead of blocking forever.
		k.endSpan(t, obs.OutcomeAborted)
		t.wantsCall = false
		f.Err = ErrMsgLost
		return machine.DispositionContinue
	}
	if delay > 0 {
		return k.delaySend(t, c, ep, true, delay)
	}
	if receiver := k.popReceiver(ep); receiver != nil {
		k.deliver(t, c, receiver, true)
		t.state = stateBlockedCall
		return machine.DispositionBlock
	}
	t.state = stateBlockedSend
	ep.sendQ = append(ep.sendQ, t)
	k.mEPQ.Add(1)
	return machine.DispositionBlock
}

// doRecv implements seL4_Recv / seL4_NBRecv.
func (k *Kernel) doRecv(t *tcb, nb bool) machine.Disposition {
	k.mRecvs.Inc()
	f := t.frame
	c, err := k.lookupCap(t, CPtr(f.R[0]), KindEndpoint, CapRead)
	if err != nil {
		f.Err = err
		return machine.DispositionContinue
	}
	ep := k.eps[c.Object]
	if sender := k.popSender(ep); sender != nil {
		k.buildDelivery(sender, sender.sendCap, t, sender.wantsCall)
		if sender.wantsCall {
			sender.state = stateBlockedCall
		} else {
			sender.state = stateReady
			k.wake(sender, nil)
		}
		return machine.DispositionContinue
	}
	if nb {
		f.Err = ErrWouldBlock
		return machine.DispositionContinue
	}
	t.state = stateBlockedRecv
	ep.recvQ = append(ep.recvQ, t)
	k.mEPQ.Add(1)
	return machine.DispositionBlock
}

// doReply implements seL4_Reply using the thread's one-time reply
// capability: the reply's label and words move from the replier's frame to
// the caller's.
func (k *Kernel) doReply(t *tcb) error {
	rc := t.replyCap
	if rc == nil || rc.used {
		return ErrNoReplyCap
	}
	rc.used = true
	t.replyCap = nil
	caller := rc.caller
	if caller == nil || caller.state != stateBlockedCall {
		// Caller died or was aborted; the reply evaporates.
		return nil
	}
	k.stats.Replies++
	k.stats.IPCDelivered++
	k.mReplies.Inc()
	k.mDelivered.Inc()
	caller.state = stateReady
	k.endSpan(caller, obs.OutcomeDelivered)
	copy(caller.frame.R[1:2+MsgWords], t.frame.R[1:2+MsgWords])
	k.wake(caller, nil)
	return nil
}

// deliver wakes a blocked receiver with the sender's message.
func (k *Kernel) deliver(sender *tcb, senderCap Capability, receiver *tcb, isCall bool) {
	k.buildDelivery(sender, senderCap, receiver, isCall)
	receiver.state = stateReady
	receiver.waitToken++
	k.wake(receiver, nil)
}

// buildDelivery writes the receiver-side result into the receiver's frame:
// the badge, the message from the sender's frame, a transferred capability,
// and (for calls) the reply capability installed on the receiver.
func (k *Kernel) buildDelivery(sender *tcb, senderCap Capability, receiver *tcb, isCall bool) {
	k.stats.IPCDelivered++
	k.mDelivered.Inc()
	// Record the delivery through its endpoint for the least-privilege
	// audit: the sender exercised its send cap, the receiver its recv cap.
	k.m.IPC().Record(k.edgesOf(sender, senderCap.Object).out)
	k.m.IPC().Record(k.edgesOf(receiver, senderCap.Object).in)
	in, out := sender.frame, receiver.frame
	out.R[0] = uint64(senderCap.Badge)
	copy(out.R[1:2+MsgWords], in.R[1:2+MsgWords])
	out.R[10], out.R[11] = 0, 0
	if in.R[10] != 0 {
		moved := sender.cspace[CPtr(in.R[11])]
		if !moved.IsNull() {
			if slot, ok := freeSlot(receiver); ok {
				receiver.cspace[slot] = moved
				out.R[10], out.R[11] = 1, uint64(slot)
				k.stats.CapsTransferred++
				k.m.Trace().Logf("sel4", "cap transfer %v from %s to %s slot %d",
					moved, sender.name, receiver.name, slot)
			}
		}
	}
	if isCall {
		receiver.replyObject = replyObj{caller: sender}
		receiver.replyCap = &receiver.replyObject
	}
}

// doSuspend implements the TCB_Suspend invocation: the "kill" of the seL4
// world. It requires a TCB capability with write rights — which the CAmkES
// scenario never distributes to the web interface.
func (k *Kernel) doSuspend(t *tcb, cptr CPtr) error {
	c, f := k.lookup(t, cptr, KindTCB, CapWrite)
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
		return f.err
	}
	victim, ok := k.tcbs[c.Object]
	if !ok || !victim.started || victim.suspended {
		return ErrSuspended
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
	return k.m.Engine().Kill(victim.pid)
}

// doCapCopy implements CNode copy and, with mint, mint within the caller's
// own CSpace. Minting may narrow rights and set a badge; it can never widen
// rights.
func (k *Kernel) doCapCopy(t *tcb, src, dst CPtr, mint bool, badge Badge, rights Rights) error {
	if int(src) >= CSpaceSize || int(dst) >= CSpaceSize {
		return fmt.Errorf("%w: %d/%d", ErrBadSlot, src, dst)
	}
	c := t.cspace[src]
	if c.IsNull() {
		k.stats.InvalidCapErrs++
		return fmt.Errorf("%w: slot %d", ErrInvalidCap, src)
	}
	if !t.cspace[dst].IsNull() {
		return fmt.Errorf("%w: destination %d occupied", ErrBadSlot, dst)
	}
	if mint {
		c.Rights &= rights // narrow only
		c.Badge = badge
	}
	t.cspace[dst] = c
	return nil
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
		k.wake(t, nil)
	}
}

// armNet blocks t on the network under a fresh wait token, building its
// network waker on its first blocking accept or read: an accept on l or,
// with l nil, a read of up to max bytes from conn. The caller registers
// onNet with the wait's token.
func (k *Kernel) armNet(t *tcb, l *vnet.Listener, conn *vnet.Conn, max int) {
	if t.onNet == nil {
		k.buildNetWaker(t)
	}
	t.state = stateNetBlocked
	t.waitToken++
	t.netListener, t.netConn, t.netMax = l, conn, max
}

// buildNetWaker builds t's reusable network waker. A firing completes the
// accept or read t blocked in; a firing whose token is stale, or whose t no
// longer runs under its PID, does nothing.
func (k *Kernel) buildNetWaker(t *tcb) {
	t.onNet = func(token uint64) {
		if k.byPID[t.pid] != t || t.waitToken != token || t.state != stateNetBlocked {
			return
		}
		t.state = stateReady
		var err error
		if l := t.netListener; l != nil {
			var conn *vnet.Conn
			if conn, err = k.cfg.Net.Accept(l); err == nil {
				t.nextHandle++
				t.conns[t.nextHandle] = conn
				t.frame.R[0] = uint64(t.nextHandle)
			}
		} else {
			t.frame.Buf, err = k.cfg.Net.BoardRead(t.netConn, t.netMax)
		}
		t.netListener, t.netConn = nil, nil
		k.wake(t, err)
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
			k.wake(caller, ErrCallAborted)
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

// wake writes err into the error slot of t, a thread blocked in a trap
// whose reply the caller has written into its frame, and readies it.
func (k *Kernel) wake(t *tcb, err error) {
	t.frame.Err = err
	if err := k.m.Engine().Ready(t.pid); err != nil {
		panic(fmt.Sprintf("sel4: Ready(%d): %v", t.pid, err))
	}
}

// --- Network mediation ------------------------------------------------------

func (k *Kernel) doNetListen(t *tcb, f *machine.Frame) error {
	c, err := k.lookupCap(t, CPtr(f.R[0]), KindNetPort, CapRead)
	if err != nil {
		return err
	}
	if k.cfg.Net == nil {
		return fmt.Errorf("%w: board has no network", ErrInvalidCap)
	}
	l, err := k.cfg.Net.Listen(k.ports[c.Object].port)
	if err != nil {
		return err
	}
	t.nextHandle++
	t.listeners[t.nextHandle] = l
	f.R[0] = uint64(t.nextHandle)
	return nil
}

func (k *Kernel) doNetAccept(t *tcb, f *machine.Frame) machine.Disposition {
	l, ok := t.listeners[int32(f.R[0])]
	if !ok {
		f.Err = ErrBadHandle
		return machine.DispositionContinue
	}
	conn, err := k.cfg.Net.Accept(l)
	switch {
	case err == nil:
		t.nextHandle++
		t.conns[t.nextHandle] = conn
		f.R[0] = uint64(t.nextHandle)
		return machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		k.armNet(t, l, nil, 0)
		k.cfg.Net.WaitConn(l, t.onNet, t.waitToken)
		return machine.DispositionBlock
	default:
		f.Err = err
		return machine.DispositionContinue
	}
}

func (k *Kernel) doNetRead(t *tcb, f *machine.Frame) machine.Disposition {
	conn, ok := t.conns[int32(f.R[0])]
	if !ok {
		f.Err = ErrBadHandle
		return machine.DispositionContinue
	}
	maxBytes := int(f.R[1])
	data, err := k.cfg.Net.BoardRead(conn, maxBytes)
	switch {
	case err == nil:
		f.Buf = data
		return machine.DispositionContinue
	case errors.Is(err, vnet.ErrWouldBlock):
		k.armNet(t, nil, conn, maxBytes)
		k.cfg.Net.WaitReadable(conn, t.onNet, t.waitToken)
		return machine.DispositionBlock
	default:
		f.Err = err
		return machine.DispositionContinue
	}
}
