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

// doSignal implements seL4_Signal.
func (k *Kernel) doSignal(t *tcb, cptr CPtr) error {
	c, err := k.lookupCap(t, cptr, KindNotification, CapWrite)
	if err != nil {
		return err
	}
	n := k.notifs[c.Object]
	k.m.IPC().Record(k.edgesOf(t, c.Object).out)
	if waiter := popWaiter(n); waiter != nil {
		// Deliver directly: the waiter gets this signal's badge plus any
		// already-accumulated bits.
		waiter.frame.R[0] = uint64(n.word | c.Badge)
		n.word = 0
		k.m.IPC().Record(k.edgesOf(waiter, n.id).in)
		k.waits.Wake(&waiter.Wait, nil)
		return nil
	}
	n.word |= c.Badge
	return nil
}

// doWait implements seL4_Wait / seL4_Poll.
func (k *Kernel) doWait(t *tcb, poll bool) machine.Disposition {
	f := t.frame
	c, err := k.lookupCap(t, CPtr(f.R[0]), KindNotification, CapRead)
	if err != nil {
		f.Err = err
		return machine.DispositionContinue
	}
	n := k.notifs[c.Object]
	if n.word != 0 {
		f.R[0] = uint64(n.word)
		n.word = 0
		k.m.IPC().Record(k.edgesOf(t, c.Object).in)
		return machine.DispositionContinue
	}
	if poll {
		f.Err = ErrWouldBlock
		return machine.DispositionContinue
	}
	t.Phase = stateBlockedNotif
	n.waitQ = append(n.waitQ, t)
	return machine.DispositionBlock
}

// popWaiter dequeues the next live waiter.
func popWaiter(n *notificationObj) *tcb {
	for len(n.waitQ) > 0 {
		w := n.waitQ[0]
		copy(n.waitQ, n.waitQ[1:])
		n.waitQ = n.waitQ[:len(n.waitQ)-1]
		if w.Phase == stateBlockedNotif {
			return w
		}
	}
	return nil
}

// Signal performs seL4_Signal on a notification capability (write right).
func (a *API) Signal(cptr CPtr) error {
	a.f.R[0] = uint64(cptr)
	return a.ctx.Trap(trapSignal)
}

// Wait performs seL4_Wait: blocks until the notification word is non-zero
// and returns it (clearing it).
func (a *API) Wait(cptr CPtr) (Badge, error) {
	return a.wait(trapWait, cptr)
}

// Poll performs seL4_Poll: like Wait but returns ErrWouldBlock when the word
// is zero.
func (a *API) Poll(cptr CPtr) (Badge, error) {
	return a.wait(trapPoll, cptr)
}

func (a *API) wait(nr uint32, cptr CPtr) (Badge, error) {
	a.f.R[0] = uint64(cptr)
	if err := a.ctx.Trap(nr); err != nil {
		return 0, err
	}
	return Badge(a.f.R[0]), nil
}
