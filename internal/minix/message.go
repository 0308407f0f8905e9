package minix

import (
	"encoding/binary"
	"fmt"
	"math"

	"mkbas/internal/machine"
)

// PayloadSize is the fixed payload capacity: 64 bytes total minus the 4-byte
// source endpoint and 4-byte message type.
const PayloadSize = 56

// Message is the fixed-size MINIX 3 IPC message. Source is always stamped by
// the kernel on delivery; a value set by the sender is overwritten, which is
// what defeats user-level spoofing.
type Message struct {
	// Source is the sender's endpoint, kernel-stamped.
	Source Endpoint
	// Type is the 4-byte message type; values 0..63 are subject to the ACM
	// bitmask, larger values are always denied by the security-enhanced
	// kernel.
	Type int32
	// Payload is the opaque 56-byte body.
	Payload [PayloadSize]byte
}

// String renders a compact debug form.
func (m Message) String() string {
	return fmt.Sprintf("msg{src=%v type=%d}", m.Source, m.Type)
}

// The payload codec: little-endian primitives at fixed offsets, plus a
// length-prefixed string helper. Offsets are byte indexes into Payload.

// PutU32 stores v at byte offset off.
func (m *Message) PutU32(off int, v uint32) {
	binary.LittleEndian.PutUint32(m.Payload[off:off+4], v)
}

// U32 loads a uint32 from byte offset off.
func (m *Message) U32(off int) uint32 {
	return binary.LittleEndian.Uint32(m.Payload[off : off+4])
}

// PutU64 stores v at byte offset off.
func (m *Message) PutU64(off int, v uint64) {
	binary.LittleEndian.PutUint64(m.Payload[off:off+8], v)
}

// U64 loads a uint64 from byte offset off.
func (m *Message) U64(off int) uint64 {
	return binary.LittleEndian.Uint64(m.Payload[off : off+8])
}

// PutI64 stores v at byte offset off.
func (m *Message) PutI64(off int, v int64) { m.PutU64(off, uint64(v)) }

// I64 loads an int64 from byte offset off.
func (m *Message) I64(off int) int64 { return int64(m.U64(off)) }

// PutF64 stores a float64 at byte offset off.
func (m *Message) PutF64(off int, v float64) { m.PutU64(off, math.Float64bits(v)) }

// F64 loads a float64 from byte offset off.
func (m *Message) F64(off int) float64 { return math.Float64frombits(m.U64(off)) }

// PutString stores s length-prefixed at byte offset off. It panics if the
// string cannot fit — message layouts are fixed at design time, so overflow
// is a programming error, not an input error.
func (m *Message) PutString(off int, s string) {
	if off+1+len(s) > PayloadSize {
		panic(fmt.Sprintf("minix: string %q does not fit payload at offset %d", s, off))
	}
	m.Payload[off] = byte(len(s))
	copy(m.Payload[off+1:], s)
}

// GetString loads a length-prefixed string from byte offset off.
func (m *Message) GetString(off int) string {
	return string(m.stringBytes(off))
}

// stringBytes returns the bytes of the length-prefixed string at offset off
// without copying them out of the payload.
func (m *Message) stringBytes(off int) []byte {
	n := int(m.Payload[off])
	if off+1+n > PayloadSize {
		n = PayloadSize - off - 1
	}
	return m.Payload[off+1 : off+1+n]
}

// NewMessage builds a message with the given type; Source is left for the
// kernel.
func NewMessage(msgType int32) Message {
	return Message{Type: msgType}
}

// A message travels in a trap frame's registers R1..R8: R1 holds the source
// endpoint in its low half and the type in its high half, R2..R8 the
// payload, little-endian. R0 stays free for the destination or the source
// filter.

// putMsg writes msg into f's message registers.
func putMsg(f *machine.Frame, msg *Message) {
	f.R[1] = uint64(msg.Source) | uint64(uint32(msg.Type))<<32
	for i := range PayloadSize / 8 {
		f.R[2+i] = binary.LittleEndian.Uint64(msg.Payload[8*i:])
	}
}

// frameMsg reads the message in f's message registers.
func frameMsg(f *machine.Frame) Message {
	msg := Message{Source: Endpoint(f.R[1]), Type: int32(f.R[1] >> 32)}
	for i := range PayloadSize / 8 {
		binary.LittleEndian.PutUint64(msg.Payload[8*i:], f.R[2+i])
	}
	return msg
}
