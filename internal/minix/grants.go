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

// Grant trap requests.
type (
	grantCreateReq struct {
		buf     []byte
		access  GrantAccess
		grantee Endpoint
	}
	grantRevokeReq struct {
		id GrantID
	}
	safeCopyReq struct {
		granter Endpoint
		id      GrantID
		offset  int
		length  int
		src     []byte // nil for reads
	}
)

type grantReply struct {
	id  GrantID
	err error
}

// GrantCreate grants grantee the given access to buf. The kernel retains a
// reference to buf, so writes through the grant are visible to the grantor —
// the shared-memory semantics of real grants.
func (a *API) GrantCreate(buf []byte, access GrantAccess, grantee Endpoint) (GrantID, error) {
	a.grantScratch = grantCreateReq{buf: buf, access: access, grantee: grantee}
	reply := a.ctx.Trap(&a.grantScratch).(*grantReply)
	a.grantScratch.buf = nil
	return reply.id, reply.err
}

// GrantRevoke invalidates a grant immediately.
func (a *API) GrantRevoke(id GrantID) error {
	a.revokeScratch = grantRevokeReq{id: id}
	return a.ctx.Trap(&a.revokeScratch).(*errReply).err
}

// SafeCopyFrom copies length bytes from the granted region at offset into a
// new slice. The caller must be the grantee and the grant must permit reads.
func (a *API) SafeCopyFrom(granter Endpoint, id GrantID, offset, length int) ([]byte, error) {
	a.copyScratch = safeCopyReq{granter: granter, id: id, offset: offset, length: length}
	reply := a.ctx.Trap(&a.copyScratch).(*bytesReply)
	return reply.data, reply.err
}

// SafeCopyTo copies src into the granted region at offset. The caller must
// be the grantee and the grant must permit writes.
func (a *API) SafeCopyTo(granter Endpoint, id GrantID, offset int, src []byte) error {
	a.copyScratch = safeCopyReq{granter: granter, id: id, offset: offset, length: len(src), src: src}
	err := a.ctx.Trap(&a.copyScratch).(*bytesReply).err
	a.copyScratch.src = nil
	return err
}

// doGrantCreate handles grant creation.
func (k *Kernel) doGrantCreate(self *procEntry, r *grantCreateReq) (any, machine.Disposition) {
	if len(self.grants) >= maxGrantsPerProc {
		return self.grantOut(0, ErrGrantExceeded), machine.DispositionContinue
	}
	if r.buf == nil || r.access == 0 {
		return self.grantOut(0, fmt.Errorf("%w: empty buffer or no access bits", ErrBadGrant)), machine.DispositionContinue
	}
	self.nextGrant++
	g := &grant{id: self.nextGrant, buf: r.buf, access: r.access, grantee: r.grantee}
	if self.grants == nil {
		self.grants = make(map[GrantID]*grant)
	}
	self.grants[g.id] = g
	return self.grantOut(g.id, nil), machine.DispositionContinue
}

// doGrantRevoke handles revocation.
func (k *Kernel) doGrantRevoke(self *procEntry, r *grantRevokeReq) (any, machine.Disposition) {
	g, ok := self.grants[r.id]
	if !ok || g.revoked {
		return self.errOut(fmt.Errorf("%w: id %d", ErrBadGrant, r.id)), machine.DispositionContinue
	}
	g.revoked = true
	delete(self.grants, r.id)
	return self.errOut(nil), machine.DispositionContinue
}

// doSafeCopy handles both copy directions with full checking.
func (k *Kernel) doSafeCopy(self *procEntry, r *safeCopyReq) (any, machine.Disposition) {
	granter := k.resolve(r.granter)
	if granter == nil {
		return self.bytesOut(nil, fmt.Errorf("%w: %v", ErrDeadSrcDst, r.granter)), machine.DispositionContinue
	}
	g, ok := granter.grants[r.id]
	if !ok || g.revoked {
		return self.bytesOut(nil, fmt.Errorf("%w: id %d", ErrBadGrant, r.id)), machine.DispositionContinue
	}
	if g.grantee != self.ep {
		return self.bytesOut(nil, fmt.Errorf("%w: grant %d belongs to %v", ErrNotGrantee, r.id, g.grantee)), machine.DispositionContinue
	}
	if r.offset < 0 || r.length < 0 || r.offset+r.length > len(g.buf) {
		return self.bytesOut(nil, fmt.Errorf("%w: [%d,%d) of %d", ErrGrantBounds, r.offset, r.offset+r.length, len(g.buf))), machine.DispositionContinue
	}
	if r.src == nil {
		if g.access&GrantRead == 0 {
			return self.bytesOut(nil, fmt.Errorf("%w: read", ErrGrantAccess)), machine.DispositionContinue
		}
		out := make([]byte, r.length)
		copy(out, g.buf[r.offset:])
		return self.bytesOut(out, nil), machine.DispositionContinue
	}
	if g.access&GrantWrite == 0 {
		return self.bytesOut(nil, fmt.Errorf("%w: write", ErrGrantAccess)), machine.DispositionContinue
	}
	copy(g.buf[r.offset:r.offset+r.length], r.src)
	return self.bytesOut(nil, nil), machine.DispositionContinue
}
