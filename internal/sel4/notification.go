package sel4

import "mkbas/internal/machine"

// This file adds seL4 Notification objects: the kernel's second IPC
// primitive. A notification is a word of badge bits; Signal ORs the sender
// capability's badge into it (non-blocking), Wait blocks until the word is
// non-zero and collects it atomically, Poll is the non-blocking variant.
// CAmkES "event" connections are built on these; the scenario itself only
// needs RPC, so notifications are an extension exercised by tests and the
// interrupt-style driver patterns they enable.

// notificationObj is the kernel object.
type notificationObj struct {
	id    ObjID
	name  string
	word  Badge
	waitQ []*tcb
}

// CreateNotification allocates a notification object (root-task API).
func (k *Kernel) CreateNotification(name string) ObjID {
	id := k.allocID()
	k.notifs[id] = &notificationObj{id: id, name: name}
	return id
}

// NotificationCap builds a notification capability; CapWrite permits Signal,
// CapRead permits Wait/Poll, and the badge is what Signal contributes.
func NotificationCap(obj ObjID, rights Rights, badge Badge) Capability {
	return Capability{Object: obj, Kind: KindNotification, Rights: rights, Badge: badge}
}

// Notification trap types.
type (
	signalTrap struct {
		cptr CPtr
	}
	waitTrap struct {
		cptr CPtr
		nb   bool
	}
)

type waitResult struct {
	word Badge
	err  error
}

// doSignal implements seL4_Signal.
func (k *Kernel) doSignal(t *tcb, r *signalTrap) (any, machine.Disposition) {
	c, err := k.lookupCap(t, r.cptr, KindNotification, CapWrite)
	if err != nil {
		return t.errOut(err), machine.DispositionContinue
	}
	n := k.notifs[c.Object]
	k.stats.Signals++
	k.m.IPC().Record(k.edgesOf(t, c.Object).out)
	if waiter := popWaiter(n); waiter != nil {
		// Deliver directly: the waiter gets this signal's badge plus any
		// already-accumulated bits.
		word := n.word | c.Badge
		n.word = 0
		waiter.state = stateReady
		waiter.waitToken++
		k.m.IPC().Record(k.edgesOf(waiter, n.id).in)
		k.mustReady(waiter.pid, waiter.waitOut(word, nil))
		return t.errOut(nil), machine.DispositionContinue
	}
	n.word |= c.Badge
	return t.errOut(nil), machine.DispositionContinue
}

// doWait implements seL4_Wait / seL4_Poll.
func (k *Kernel) doWait(t *tcb, r *waitTrap) (any, machine.Disposition) {
	c, err := k.lookupCap(t, r.cptr, KindNotification, CapRead)
	if err != nil {
		return t.waitOut(0, err), machine.DispositionContinue
	}
	n := k.notifs[c.Object]
	if n.word != 0 {
		word := n.word
		n.word = 0
		k.m.IPC().Record(k.edgesOf(t, c.Object).in)
		return t.waitOut(word, nil), machine.DispositionContinue
	}
	if r.nb {
		return t.waitOut(0, ErrWouldBlock), machine.DispositionContinue
	}
	t.state = stateBlockedNotif
	n.waitQ = append(n.waitQ, t)
	return nil, machine.DispositionBlock
}

// popWaiter dequeues the next live waiter.
func popWaiter(n *notificationObj) *tcb {
	for len(n.waitQ) > 0 {
		w := n.waitQ[0]
		copy(n.waitQ, n.waitQ[1:])
		n.waitQ = n.waitQ[:len(n.waitQ)-1]
		if w.state == stateBlockedNotif {
			return w
		}
	}
	return nil
}

// Signal performs seL4_Signal on a notification capability (write right).
func (a *API) Signal(cptr CPtr) error {
	a.signalScratch = signalTrap{cptr: cptr}
	return a.ctx.Trap(&a.signalScratch).(*errResult).err
}

// Wait performs seL4_Wait: blocks until the notification word is non-zero
// and returns it (clearing it).
func (a *API) Wait(cptr CPtr) (Badge, error) {
	a.waitScratch = waitTrap{cptr: cptr}
	reply := a.ctx.Trap(&a.waitScratch).(*waitResult)
	return reply.word, reply.err
}

// Poll performs seL4_Poll: like Wait but returns ErrWouldBlock when the word
// is zero.
func (a *API) Poll(cptr CPtr) (Badge, error) {
	a.waitScratch = waitTrap{cptr: cptr, nb: true}
	reply := a.ctx.Trap(&a.waitScratch).(*waitResult)
	return reply.word, reply.err
}
