// Package sel4 simulates the seL4 capability microkernel (Section III-C) at
// the level of detail the paper's experiments exercise.
//
// Everything a thread can do is mediated by capabilities: unforgeable tokens
// held in the thread's capability space (CSpace) that reference kernel
// objects (IPC endpoints, TCBs, devices, network ports) with specific access
// rights. A system call names a capability by its slot address (CPtr); the
// kernel checks possession and rights before acting. There are no users, no
// root, and no global namespace: a thread that holds one endpoint capability
// can reach exactly one counterpart, and brute-forcing slot numbers yields
// nothing but invalid-capability errors — the experiment of Section IV-D.3.
//
// The simulation models:
//
//   - kernel objects: Endpoint (rendezvous wait queues), TCB, Device, and
//     NetPort;
//   - capabilities with read/write/grant rights and badges (minted
//     identities delivered to receivers);
//   - the IPC system calls Send, NBSend, Recv, NBRecv, Call and Reply, with
//     one-time reply capabilities generated by Call, exactly the RPC
//     pattern CAmkES builds on;
//   - capability transfer over endpoints that carry the grant right — and
//     the induced monotonicity property the paper argues: an untrusted
//     process can send capabilities away but never acquire new ones unless
//     a peer explicitly grants them;
//   - TCB invocations (suspend) as the "kill" analogue, requiring a TCB
//     capability — which the scenario never hands to the web interface.
//
// The root task (played by the CAmkES loader in internal/camkes, or by a
// test) constructs all objects and distributes all capabilities before the
// board runs, mirroring "the kernel simply hands over all capabilities to
// the bootstrap process".
package sel4

import "fmt"

// Rights is the access-rights bitmask on a capability.
type Rights uint8

// Capability rights, as in the paper: "read, write and grant are the three
// rights allowed".
const (
	// CapRead permits receiving on an endpoint (or reading a device
	// register).
	CapRead Rights = 1 << iota
	// CapWrite permits sending on an endpoint (or writing a device register,
	// or invoking a TCB).
	CapWrite
	// CapGrant permits transferring capabilities across the endpoint and is
	// required for Call's reply-capability mechanism.
	CapGrant
)

// RightsRW is the common read+write pair.
const RightsRW = CapRead | CapWrite

// RightsRWG is full endpoint access.
const RightsRWG = CapRead | CapWrite | CapGrant

// Has reports whether all rights in r2 are present.
func (r Rights) Has(r2 Rights) bool { return r&r2 == r2 }

// String renders rights as "rwg" subset notation.
func (r Rights) String() string {
	out := []byte("---")
	if r.Has(CapRead) {
		out[0] = 'r'
	}
	if r.Has(CapWrite) {
		out[1] = 'w'
	}
	if r.Has(CapGrant) {
		out[2] = 'g'
	}
	return string(out)
}

// ObjKind enumerates kernel object types. It is one byte, so a Capability
// packs into 16.
type ObjKind uint8

// Kernel object kinds.
const (
	KindEndpoint ObjKind = iota + 1
	KindTCB
	KindDevice
	KindNetPort
	KindReply
	KindNotification
)

// String names the kind in CapDL-ish lowercase.
func (k ObjKind) String() string {
	switch k {
	case KindEndpoint:
		return "ep"
	case KindTCB:
		return "tcb"
	case KindDevice:
		return "device"
	case KindNetPort:
		return "netport"
	case KindReply:
		return "reply"
	case KindNotification:
		return "notification"
	default:
		return fmt.Sprintf("ObjKind(%d)", int(k))
	}
}

// ObjID identifies a kernel object.
type ObjID uint32

// Badge is the minted identity carried by an endpoint capability and
// delivered alongside messages sent through it.
type Badge uint64

// Capability is one slot's content: an object reference plus rights and
// badge. The zero Capability is an empty slot.
type Capability struct {
	Object ObjID
	Kind   ObjKind
	Rights Rights
	Badge  Badge
}

// IsNull reports whether the slot is empty.
func (c Capability) IsNull() bool { return c.Kind == 0 }

// String renders "ep#3(rw-,badge=7)".
func (c Capability) String() string {
	if c.IsNull() {
		return "null"
	}
	return fmt.Sprintf("%v#%d(%v,badge=%d)", c.Kind, c.Object, c.Rights, c.Badge)
}

// CPtr addresses a slot in a thread's capability space. It is as wide as
// the register that carries it, so every register value names one slot
// register as given: a value past the CSpace is an empty slot, never an
// alias of a low one.
type CPtr uint64

// CSpaceSize is the fixed one-level CNode size, plenty for the scenario and
// small enough that a brute-force enumeration test covers every slot.
const CSpaceSize = 256

// MsgWords is the number of message registers carried by an IPC message.
const MsgWords = 8

// Msg is one IPC message: a label (the method selector in RPC usage),
// message-register words, and optionally one capability to transfer
// (requires grant on the endpoint used).
type Msg struct {
	Label uint64
	Words [MsgWords]uint64
	// TransferCap, when non-nil, names a slot in the sender's CSpace whose
	// capability should be handed to the receiver.
	TransferCap *CPtr
}

// Recv results carry the sender badge, and the slot any transferred cap
// landed in.
type RecvResult struct {
	Msg   Msg
	Badge Badge
	// CapSlot is the receiver slot a transferred capability was placed in;
	// nil when no capability arrived.
	CapSlot *CPtr
}
