// Package bacnet implements a miniature BACnet-inspired building-automation
// protocol and the "secure proxy" of the paper's Fig. 1 framework.
//
// The paper's introduction motivates the platform work with the state of the
// field bus: "the security of BACnet, one of the most popular communication
// protocols in BAS, is vulnerable to diverse, common network-based attacks
// such as denial-of-service (DoS) attacks, replay attacks, spoofing attacks".
// This package makes that concrete:
//
//   - the legacy protocol (PDU + Server) has, by faithful design, no
//     authentication and no freshness: anyone who can reach the port can
//     read and write properties, and captured frames replay verbatim;
//   - the secure proxy (Proxy + SecureClient) wraps the same legacy server
//     the way Fig. 1 interposes "Secure Proxy" boxes in front of legacy
//     devices: HMAC-SHA256 authentication with a shared device key and a
//     strictly increasing nonce per client defeat spoofing and replay
//     without modifying the legacy device.
//
// Framing is length-prefixed over a byte stream (the paper's BAS network is
// simulated by internal/vnet); real BACnet/IP rides UDP, which changes
// nothing about the attacks or the defence.
package bacnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// PDUType is the service choice.
type PDUType uint8

// Services, a minimal subset of BACnet's confirmed services.
const (
	// ReadProperty asks for a property's present value.
	ReadProperty PDUType = iota + 1
	// WriteProperty sets a property's present value.
	WriteProperty
	// Ack answers a successful request.
	Ack
	// ErrorPDU answers a failed request.
	ErrorPDU
)

// String names the service.
func (t PDUType) String() string {
	switch t {
	case ReadProperty:
		return "ReadProperty"
	case WriteProperty:
		return "WriteProperty"
	case Ack:
		return "Ack"
	case ErrorPDU:
		return "Error"
	default:
		return fmt.Sprintf("PDUType(%d)", uint8(t))
	}
}

// ObjectID addresses a point on the device, like a BACnet object identifier.
type ObjectID uint16

// The scenario device's object map.
const (
	// ObjTemperature is the room temperature (analog input, read-only).
	ObjTemperature ObjectID = 0x0100
	// ObjSetpoint is the desired temperature (analog value, writable).
	ObjSetpoint ObjectID = 0x0200
	// ObjHeater is the heater state (binary output; writable on legacy
	// devices — precisely the exposure).
	ObjHeater ObjectID = 0x0300
	// ObjAlarm is the alarm state (binary output).
	ObjAlarm ObjectID = 0x0301
)

// PDU is one protocol data unit.
type PDU struct {
	Type     PDUType
	InvokeID uint8
	Device   uint32
	Object   ObjectID
	Value    float64
	// Code carries the error code on ErrorPDU.
	Code uint8
}

// Error codes.
const (
	CodeUnknownObject uint8 = iota + 1
	CodeWriteDenied
	CodeBadRequest
)

// pduSize is the fixed encoding size.
const pduSize = 1 + 1 + 4 + 2 + 8 + 1

// Protocol errors.
var (
	ErrShortFrame = errors.New("bacnet: short frame")
	ErrBadFrame   = errors.New("bacnet: malformed frame")
)

// AppendEncode appends the encoded PDU to buf and returns the extended
// slice. Hot paths (the head-end poller, gateway reply loops) pass a reused
// scratch buffer so encoding allocates nothing.
func (p PDU) AppendEncode(buf []byte) []byte {
	var tmp [pduSize]byte
	tmp[0] = byte(p.Type)
	tmp[1] = p.InvokeID
	binary.BigEndian.PutUint32(tmp[2:], p.Device)
	binary.BigEndian.PutUint16(tmp[6:], uint16(p.Object))
	binary.BigEndian.PutUint64(tmp[8:], math.Float64bits(p.Value))
	tmp[16] = p.Code
	return append(buf, tmp[:]...)
}

// DecodePDU parses one PDU.
func DecodePDU(data []byte) (PDU, error) {
	if len(data) < pduSize {
		return PDU{}, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(data))
	}
	p := PDU{
		Type:     PDUType(data[0]),
		InvokeID: data[1],
		Device:   binary.BigEndian.Uint32(data[2:]),
		Object:   ObjectID(binary.BigEndian.Uint16(data[6:])),
		Value:    math.Float64frombits(binary.BigEndian.Uint64(data[8:])),
		Code:     data[16],
	}
	if p.Type < ReadProperty || p.Type > ErrorPDU {
		return PDU{}, fmt.Errorf("%w: type %d", ErrBadFrame, data[0])
	}
	return p, nil
}

// AppendFrame length-prefixes a payload for stream transports: it appends
// the frame to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Deframer accumulates stream bytes and yields complete frames.
//
// It owns its buffer: Feed copies the caller's bytes in, so the caller may
// reuse them at once (the transports here hand out read buffers that are
// valid only until their next read), and the buffer is reused from exchange
// to exchange. A frame from Next aliases that buffer and is valid until the
// next Feed or Reset.
type Deframer struct {
	buf []byte
	off int // bytes of buf already returned by Next
}

// Feed appends a copy of stream bytes. It first drops the bytes of frames
// Next already returned, which invalidates those frames.
func (d *Deframer) Feed(data []byte) {
	if d.off > 0 {
		d.buf = d.buf[:copy(d.buf, d.buf[d.off:])]
		d.off = 0
	}
	d.buf = append(d.buf, data...)
}

// Next returns the next complete frame payload, or nil when more bytes are
// needed. The frame aliases the deframer's buffer: callers must not modify
// it, and it is valid until the next Feed or Reset.
func (d *Deframer) Next() []byte {
	rest := d.buf[d.off:]
	if len(rest) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(rest))
	if len(rest) < 2+n {
		return nil
	}
	d.off += 2 + n
	return rest[2 : 2+n : 2+n]
}

// Reset discards any buffered bytes, keeping the buffer for reuse: a
// deframer serving one connection after another starts each clean.
func (d *Deframer) Reset() {
	d.buf, d.off = d.buf[:0], 0
}
