package minix

import (
	"errors"
	"fmt"

	"mkbas/internal/machine"
)

// Memory grants, the third MINIX 3 IPC mechanism the paper lists
// ("MINIX 3 IPC directly supports synchronous and asynchronous message
// passing, and memory grants"): fixed 64-byte messages cannot carry bulk
// data, so a process grants a peer bounded access to one of its buffers and
// the peer moves bytes with kernel-checked safe-copies.
//
// The simulation keeps MINIX's safety properties: a grant names exactly one
// grantee endpoint and an access mode; safecopies are bounds-checked against
// the granted region; revocation is immediate; and a grant dies with its
// grantor. The grant ID is transferred to the peer inside an ordinary
// message (subject to the ACM like any payload), so grant-based transfers
// inherit the same mandatory policy as everything else.

// GrantID names one grant in its grantor's grant table.
type GrantID uint32

// Grant access modes.
type GrantAccess uint8

const (
	// GrantRead lets the grantee read the region.
	GrantRead GrantAccess = 1 << iota
	// GrantWrite lets the grantee write the region.
	GrantWrite
)

// Grant errors.
var (
	ErrBadGrant      = errors.New("minix: invalid or revoked grant")
	ErrGrantAccess   = errors.New("minix: grant does not permit this access")
	ErrGrantBounds   = errors.New("minix: safecopy outside granted region")
	ErrNotGrantee    = errors.New("minix: caller is not the grantee")
	ErrGrantExceeded = errors.New("minix: grant table full")
)

// maxGrantsPerProc bounds each process's grant table.
const maxGrantsPerProc = 64

// grant is one grant-table entry.
type grant struct {
	id      GrantID
	buf     []byte
	access  GrantAccess
	grantee Endpoint
	revoked bool
}

// GrantCreate grants grantee the given access to buf. The kernel retains a
// reference to buf, so writes through the grant are visible to the grantor —
// the shared-memory semantics of real grants.
func (a *API) GrantCreate(buf []byte, access GrantAccess, grantee Endpoint) (GrantID, error) {
	a.f.Buf, a.f.R[0], a.f.R[1] = buf, uint64(access), uint64(grantee)
	err := a.ctx.Trap(trapGrantCreate)
	a.f.Buf = nil
	if err != nil {
		return 0, err
	}
	return GrantID(a.f.R[0]), nil
}

// GrantRevoke invalidates a grant immediately.
func (a *API) GrantRevoke(id GrantID) error {
	a.f.R[0] = uint64(id)
	return a.ctx.Trap(trapGrantRevoke)
}

// SafeCopyFrom copies length bytes from the granted region at offset into a
// new slice. The caller must be the grantee and the grant must permit reads.
func (a *API) SafeCopyFrom(granter Endpoint, id GrantID, offset, length int) ([]byte, error) {
	return a.safeCopy(granter, id, offset, length, nil)
}

// SafeCopyTo copies src into the granted region at offset. The caller must
// be the grantee and the grant must permit writes.
func (a *API) SafeCopyTo(granter Endpoint, id GrantID, offset int, src []byte) error {
	_, err := a.safeCopy(granter, id, offset, len(src), src)
	return err
}

// safeCopy traps for either copy direction: a nil src reads.
func (a *API) safeCopy(granter Endpoint, id GrantID, offset, length int, src []byte) ([]byte, error) {
	f := a.f
	f.R[0], f.R[1], f.R[2], f.R[3], f.Buf = uint64(granter), uint64(id), uint64(offset), uint64(length), src
	err := a.ctx.Trap(trapSafeCopy)
	data := f.Buf
	f.Buf = nil
	return data, err
}

// doGrantCreate handles grant creation.
func (k *Kernel) doGrantCreate(self *procEntry, f *machine.Frame) error {
	if len(self.grants) >= maxGrantsPerProc {
		return ErrGrantExceeded
	}
	buf, access := f.Buf, GrantAccess(f.R[0])
	if buf == nil || access == 0 {
		return fmt.Errorf("%w: empty buffer or no access bits", ErrBadGrant)
	}
	self.nextGrant++
	g := &grant{id: self.nextGrant, buf: buf, access: access, grantee: Endpoint(f.R[1])}
	if self.grants == nil {
		self.grants = make(map[GrantID]*grant)
	}
	self.grants[g.id] = g
	f.R[0] = uint64(g.id)
	return nil
}

// doGrantRevoke handles revocation.
func (k *Kernel) doGrantRevoke(self *procEntry, id GrantID) error {
	g, ok := self.grants[id]
	if !ok || g.revoked {
		return fmt.Errorf("%w: id %d", ErrBadGrant, id)
	}
	g.revoked = true
	delete(self.grants, id)
	return nil
}

// doSafeCopy handles both copy directions with full checking; a read leaves
// the copied bytes in the frame's Buf.
func (k *Kernel) doSafeCopy(self *procEntry, f *machine.Frame) error {
	from, id := Endpoint(f.R[0]), GrantID(f.R[1])
	offset, length, src := int(f.R[2]), int(f.R[3]), f.Buf
	f.Buf = nil
	granter := k.resolve(from)
	if granter == nil {
		return fmt.Errorf("%w: %v", ErrDeadSrcDst, from)
	}
	g, ok := granter.grants[id]
	if !ok || g.revoked {
		return fmt.Errorf("%w: id %d", ErrBadGrant, id)
	}
	if g.grantee != self.ep {
		return fmt.Errorf("%w: grant %d belongs to %v", ErrNotGrantee, id, g.grantee)
	}
	if offset < 0 || length < 0 || offset+length > len(g.buf) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrGrantBounds, offset, offset+length, len(g.buf))
	}
	if src == nil {
		if g.access&GrantRead == 0 {
			return fmt.Errorf("%w: read", ErrGrantAccess)
		}
		f.Buf = make([]byte, length)
		copy(f.Buf, g.buf[offset:])
		return nil
	}
	if g.access&GrantWrite == 0 {
		return fmt.Errorf("%w: write", ErrGrantAccess)
	}
	copy(g.buf[offset:offset+length], src)
	return nil
}
