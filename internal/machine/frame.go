package machine

// NumRegs is the number of argument registers in a trap frame. It is sized
// for the largest message any kernel carries: an seL4 call (a capability
// pointer or badge, a label, eight message words, and a transferred
// capability's presence flag and slot) needs twelve; a MINIX message (64
// bytes) plus its destination needs nine.
const NumRegs = 12

// Frame is a process's trap frame: the fixed-size system-call ABI between
// a process and its kernel, in the shape of seL4's message registers and
// MINIX's fixed message. The engine owns one frame per process. A
// system-call wrapper writes its arguments into the caller's frame and
// traps with a number; the kernel reads them and writes the reply back into
// the same frame, either before HandleTrap returns or, for a trap that
// blocks, into the parked process's frame before Engine.Ready wakes it.
//
// Each kernel numbers its traps from 1 in one table and documents the
// register layout of each; 0 is never a valid trap number.
type Frame struct {
	// Nr is the trap number, set by Context.Trap.
	Nr uint32
	// R are the argument and reply registers.
	R [NumRegs]uint64
	// Buf carries a byte slice in either direction: a write's payload, a
	// read's data, a memory grant's buffer. Every wrapper that uses it
	// clears it after the trap, so it is nil between traps and the frame
	// never keeps a caller's buffer alive.
	Buf []byte
	// S0 and S1 carry strings in: device IDs, lookup and image names, mq
	// names, and a trace line's tag and text.
	S0, S1 string
	// Err is the trap's error reply. Context.Trap clears it on entry, so a
	// kernel writes it only on failure.
	Err error
}
