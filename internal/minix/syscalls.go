package minix

import (
	"errors"

	"mkbas/internal/machine"
)

// IPC and kernel-call errors.
var (
	// ErrDeadSrcDst reports IPC addressed to a dead or never-existing
	// endpoint (MINIX EDEADSRCDST).
	ErrDeadSrcDst = errors.New("minix: dead or invalid source/destination endpoint")
	// ErrMailboxFull reports an asynchronous send to a full mailbox.
	ErrMailboxFull = errors.New("minix: asynchronous mailbox full")
	// ErrNoPrivilege reports a privileged operation attempted by an
	// unprivileged process (kernel calls, device or network access).
	ErrNoPrivilege = errors.New("minix: operation not permitted for this process")
	// ErrUnknownImage reports a fork2/exec of an unregistered binary image.
	ErrUnknownImage = errors.New("minix: unknown process image")
	// ErrNameNotFound reports a directory-service lookup miss.
	ErrNameNotFound = errors.New("minix: name not published")
	// ErrBadHandle reports an invalid listener/connection handle.
	ErrBadHandle = errors.New("minix: bad descriptor")
	// ErrTableFull reports process-table exhaustion.
	ErrTableFull = errors.New("minix: process table full")
	// ErrSelfSend reports a process sending to itself (guaranteed deadlock
	// under rendezvous semantics, refused like MINIX's ELOCKED).
	ErrSelfSend = errors.New("minix: send to self would deadlock")
	// ErrTimeout reports a ReceiveTimeout that expired with no message, or a
	// send whose delivery was lost in transit (fault injection).
	ErrTimeout = errors.New("minix: IPC timed out")
)

// Trap numbers: the wire format between a simulated process and the kernel;
// user code uses the API wrappers instead. Each trap reads its arguments
// from, and writes its reply into, the caller's frame as listed. A message
// travels in the message registers R1..R8 (see putMsg); every trap can fail
// with an error in the frame's error slot.
const (
	trapSend           uint32 = iota + 1 // R0 dst, R1..R8 msg
	trapSendRec                          // R0 dst, R1..R8 msg → R1..R8 reply
	trapReceive                          // R0 from → R1..R8 msg
	trapReceiveTimeout                   // R0 from, R1 timeout → R1..R8 msg
	trapNotify                           // R0 dst
	trapSendNB                           // R0 dst, R1..R8 msg
	trapLookup                           // S0 name → R0 endpoint
	trapNetListen                        // R0 port → R0 listener
	trapNetAccept                        // R0 listener → R0 connection
	trapNetRead                          // R0 connection, R1 max → Buf data
	trapNetWrite                         // R0 connection, Buf data
	trapNetClose                         // R0 connection
	trapGrantCreate                      // Buf region, R0 access, R1 grantee → R0 grant
	trapGrantRevoke                      // R0 grant
	trapSafeCopy                         // R0 granter, R1 grant, R2 offset, R3 length, Buf source (nil reads) → Buf data

	// Privileged kernel calls, usable only by system servers (PM, RS).
	trapKSpawn // S0 image, R0 ac_id (0 inherits) → R0 endpoint
	trapKKill  // R0 target

	// trapProc is the first of the process traps (sleep, trace, device
	// read and write, exit), laid out and run by machine.ProcTraps.
	trapProc
	trapLimit = trapProc + machine.ProcTrapCount // one past the highest trap number
)

// Wire error codes used inside PM protocol payloads.
const (
	codeOK int32 = iota
	codeEPerm
	codeENoEnt
	codeEQuota
	codeETableFull
	codeEUnknownImage
)

// codeFromErr maps kernel errors onto PM wire codes.
func codeFromErr(err error) int32 {
	switch {
	case err == nil:
		return codeOK
	case errors.Is(err, ErrUnknownImage):
		return codeEUnknownImage
	case errors.Is(err, ErrTableFull):
		return codeETableFull
	case errors.Is(err, ErrDeadSrcDst):
		return codeENoEnt
	default:
		return codeEPerm
	}
}

// errFromCode maps PM wire codes back to errors on the caller side.
func errFromCode(code int32) error {
	switch code {
	case codeOK:
		return nil
	case codeENoEnt:
		return ErrDeadSrcDst
	case codeEQuota:
		return errQuotaWire
	case codeETableFull:
		return ErrTableFull
	case codeEUnknownImage:
		return ErrUnknownImage
	default:
		return errPermWire
	}
}

// Wire-level sentinels for PM denials; distinct from kernel errors so tests
// can tell where a denial happened.
var (
	errPermWire  = errors.New("minix: denied by process manager policy")
	errQuotaWire = errors.New("minix: denied by process manager: quota exhausted")
)

// ErrPMDenied is the sentinel for PM policy denials.
var ErrPMDenied = errPermWire

// ErrPMQuota is the sentinel for PM quota exhaustion.
var ErrPMQuota = errQuotaWire
