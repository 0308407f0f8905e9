package sel4

import (
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
	trapNetListen                    // R0 net-port cap → R0 listener
	trapNetAccept                    // R0 listener → R0 connection
	trapNetRead                      // R0 connection, R1 max → Buf data
	trapNetWrite                     // R0 connection, Buf data
	trapNetClose                     // R0 connection

	// trapProc is the first of the process traps (sleep, trace, device
	// read and write, exit), laid out and run by machine.ProcTraps; a
	// device trap names the device by a capability in R0.
	trapProc
	trapLimit = trapProc + machine.ProcTrapCount // one past the highest trap number
)

// HandleTrap implements machine.TrapHandler: it dispatches on the trap
// number, reading the arguments from and writing the reply into f, the
// caller's frame.
func (k *Kernel) HandleTrap(pid machine.PID, f *machine.Frame) machine.Disposition {
	if k.traps.Handles(f.Nr) {
		return k.traps.Trap(pid, f)
	}
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
		if slot >= CSpaceSize {
			f.Err = k.refusals.Book(capFault{why: faultDelete, src: t.name, cptr: slot}).Err
			break
		}
		t.setSlot(slot, Capability{})
	case trapNetListen:
		k.doNetListen(t, f)
	case trapNetAccept, trapNetRead, trapNetWrite, trapNetClose:
		return t.socks.Trap(f, trapNetListen, ErrBadHandle)
	default:
		f.Err = fmt.Errorf("sel4: unknown trap %d", f.Nr)
	}
	return machine.DispositionContinue
}

// devAccess is the kernel's device access check: the capability in R0 must
// be a device capability with the read or write right.
func (k *Kernel) devAccess(pid machine.PID, f *machine.Frame, write bool) (machine.DeviceID, error) {
	rights := CapRead
	if write {
		rights = CapWrite
	}
	c, err := k.lookupCap(k.tcbOf(pid), CPtr(f.R[0]), KindDevice, rights)
	if err != nil {
		return "", err
	}
	return k.devs[c.Object].dev, nil
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
		f.Err = k.refusals.Book(capFault{why: faultGrant, src: t.name, obj: c.Object}).Err
		return machine.DispositionContinue
	}
	ep := k.eps[c.Object]
	drop, delay := k.FaultFor(t.name, ep.name)
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
	t.Phase = stateBlockedSend
	ep.sendQ = append(ep.sendQ, t)
	k.mEPQ.Add(1)
	return machine.DispositionBlock
}

// delaySend parks a sender whose message is being delayed in transit by
// fault injection: the sender blocks as usual but joins the endpoint's send
// queue only when the delay elapses, so receivers cannot see the message
// early.
func (k *Kernel) delaySend(t *tcb, c Capability, ep *endpointObj, isCall bool, delay time.Duration) machine.Disposition {
	token := k.waits.Block(&t.Wait, stateBlockedSend)
	k.m.Clock().After(delay, func() {
		if k.waits.Current(t.PID, token, stateBlockedSend) == nil {
			return
		}
		if receiver := k.popReceiver(ep); receiver != nil {
			k.deliver(t, c, receiver, isCall)
			if isCall {
				t.Phase = stateBlockedCall
				return
			}
			k.waits.Wake(&t.Wait, nil)
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
	ep := k.eps[c.Object]
	// The round-trip span stays open until Reply (or abort) wakes the
	// caller.
	t.span = k.tracer.Begin(k.edgesOf(t, c.Object).call)
	t.sendCap = c
	t.wantsCall = true
	drop, delay := k.FaultFor(t.name, ep.name)
	if drop {
		// A lost Call is observable: the caller expected a reply that will
		// never come, so it gets an error instead of blocking forever.
		k.tracer.Finish(&t.span, obs.OutcomeAborted, k.mCallNs)
		t.wantsCall = false
		f.Err = ErrMsgLost
		return machine.DispositionContinue
	}
	if delay > 0 {
		return k.delaySend(t, c, ep, true, delay)
	}
	if receiver := k.popReceiver(ep); receiver != nil {
		k.deliver(t, c, receiver, true)
		t.Phase = stateBlockedCall
		return machine.DispositionBlock
	}
	t.Phase = stateBlockedSend
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
			sender.Phase = stateBlockedCall
		} else {
			k.waits.Wake(&sender.Wait, nil)
		}
		return machine.DispositionContinue
	}
	if nb {
		f.Err = ErrWouldBlock
		return machine.DispositionContinue
	}
	t.Phase = stateBlockedRecv
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
	if caller == nil || caller.Phase != stateBlockedCall {
		// Caller died or was aborted; the reply evaporates.
		return nil
	}
	k.mReplies.Inc()
	k.mDelivered.Inc()
	k.tracer.Finish(&caller.span, obs.OutcomeDelivered, k.mCallNs)
	copy(caller.frame.R[1:2+MsgWords], t.frame.R[1:2+MsgWords])
	k.waits.Wake(&caller.Wait, nil)
	return nil
}

// deliver wakes a blocked receiver with the sender's message.
func (k *Kernel) deliver(sender *tcb, senderCap Capability, receiver *tcb, isCall bool) {
	k.buildDelivery(sender, senderCap, receiver, isCall)
	k.waits.Wake(&receiver.Wait, nil)
}

// buildDelivery writes the receiver-side result into the receiver's frame:
// the badge, the message from the sender's frame, a transferred capability,
// and (for calls) the reply capability installed on the receiver.
func (k *Kernel) buildDelivery(sender *tcb, senderCap Capability, receiver *tcb, isCall bool) {
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
		// A slot past the sender's CSpace is empty, like any other: the
		// message is delivered and no capability moves.
		moved := sender.slot(CPtr(in.R[11]))
		if !moved.IsNull() {
			if slot, ok := freeSlot(receiver); ok {
				receiver.setSlot(slot, moved)
				out.R[10], out.R[11] = 1, uint64(slot)
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
	c, fault := capAt(t, cptr, KindTCB, CapWrite)
	if fault.why != faultNone {
		err := k.refusals.Book(fault).Err
		// A second event classifies the attempt as a blocked kill for the
		// attack reports.
		fault.kill = true
		k.refusals.Book(fault)
		return err
	}
	victim, ok := k.tcbs[c.Object]
	if !ok || !victim.started || victim.suspended {
		return ErrSuspended
	}
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
	return k.m.Engine().Kill(victim.PID)
}

// doCapCopy implements CNode copy and, with mint, mint within the caller's
// own CSpace. Minting may narrow rights and set a badge; it can never widen
// rights.
func (k *Kernel) doCapCopy(t *tcb, src, dst CPtr, mint bool, badge Badge, rights Rights) error {
	if src >= CSpaceSize || dst >= CSpaceSize {
		return k.refusals.Book(capFault{why: faultCopy, src: t.name, cptr: src, dst: dst}).Err
	}
	// Any capability will do: an empty slot is a capability fault.
	c, err := k.lookupCap(t, src, t.slot(src).Kind, 0)
	if err != nil {
		return err
	}
	if !t.slot(dst).IsNull() {
		return fmt.Errorf("%w: destination %d occupied", ErrBadSlot, dst)
	}
	if mint {
		c.Rights &= rights // narrow only
		c.Badge = badge
	}
	t.setSlot(dst, c)
	return nil
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
		if r.Phase == stateBlockedRecv {
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
		if s.Phase == stateBlockedSend {
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
	k.waits.End(&t.Wait)
	if info.Crashed {
		k.m.Trace().Logf("sel4", "FAULT %s: %v", t.name, info.PanicValue)
	}
	k.tracer.Finish(&t.span, obs.OutcomeAborted, k.mCallNs)

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
		if caller != nil && caller.Phase == stateBlockedCall {
			k.tracer.Finish(&caller.span, obs.OutcomeAborted, k.mCallNs)
			k.waits.Wake(&caller.Wait, ErrCallAborted)
		}
		t.replyCap = nil
	}
	t.socks.Release()
}

func removeTCB(q []*tcb, t *tcb) []*tcb {
	for i, x := range q {
		if x == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// doNetListen is the kernel's network mediation: binding a port takes a
// capability to it, with the read right, and every later socket trap works
// only on the handles that bind gave out.
func (k *Kernel) doNetListen(t *tcb, f *machine.Frame) {
	c, err := k.lookupCap(t, CPtr(f.R[0]), KindNetPort, CapRead)
	switch {
	case err != nil:
		f.Err = err
	case k.cfg.Net == nil:
		f.Err = fmt.Errorf("%w: board has no network", ErrInvalidCap)
	default:
		if t.socks == nil {
			t.socks = vnet.NewSockets(k.cfg.Net, nil, k.waits, &t.Wait)
		}
		t.socks.Listen(f, k.ports[c.Object].port)
	}
}
