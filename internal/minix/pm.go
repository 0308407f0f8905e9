package minix

import (
	"errors"
	"fmt"

	"mkbas/internal/core"
	"mkbas/internal/obs"
)

// PMName is the process manager's published name.
const PMName = "pm"

// pmServer is the user-space process manager: it serves fork2/kill over IPC
// and audits every request against the syscall half of the security policy
// (the paper's "we incorporated the process management server with ACM
// auditing mechanism").
type pmServer struct {
	k      *Kernel
	ledger *core.QuotaLedger

	// audits memoises the event detail and trace line of each distinct
	// denial, so a caller retrying a denied call costs no formatting.
	audits map[pmAuditKey]pmAudit

	// Audit counters for the experiments.
	forksGranted int64
	forksDenied  int64
	killsGranted int64
	killsDenied  int64
}

// newPMServer builds the PM state over a sealed syscall policy.
func newPMServer(k *Kernel, policy *core.SyscallPolicy) *pmServer {
	return &pmServer{k: k, ledger: core.NewQuotaLedger(policy)}
}

// pmImage is the PM's boot image: a system server at top priority.
func pmImage(pm *pmServer) Image {
	return Image{
		Name:     PMName,
		Body:     pm.run,
		Priority: 1,
		Server:   true,
	}
}

// run is the PM main loop. It runs as a simulated process; while it is
// running the engine goroutine is parked, so reading kernel tables here is
// race-free by construction.
func (pm *pmServer) run(api *API) {
	for {
		msg, err := api.Receive(EndpointAny)
		if err != nil {
			continue
		}
		var reply Message
		switch msg.Type {
		case TypePMFork2:
			reply = pm.handleFork2(api, msg)
		case TypePMKill:
			reply = pm.handleKill(api, msg)
		default:
			reply = pmReply(codeEPerm, EndpointNone)
		}
		// Reply asynchronously: a legitimate caller is rendezvous-blocked in
		// SendRec and receives immediately; a malicious caller that never
		// receives must not be able to wedge PM in a blocking send (the
		// asymmetric-trust IPC threat of [16]).
		_ = api.SendNB(msg.Source, reply)
	}
}

// handleFork2 audits and executes a fork2 request.
func (pm *pmServer) handleFork2(api *API, msg Message) Message {
	caller := pm.callerACID(msg.Source)
	image := pm.k.imageName(&msg, 0)
	requested := core.ACID(msg.U32(40))

	if err := pm.ledger.Charge(caller, core.SysFork); err != nil {
		pm.forksDenied++
		pm.audit(api, "fork2", msg.Source, caller, obs.EventForkDenied, err)
		return pmReply(pmDenyCode(err), EndpointNone)
	}
	acid := requested
	if acid == core.NoACID {
		acid = caller // plain fork: the child inherits the caller's identity
	} else if acid != caller {
		// Assigning a different identity is a loader privilege (srv_fork2).
		if err := pm.ledger.Charge(caller, core.SysSetACID); err != nil {
			pm.forksDenied++
			pm.audit(api, "fork2/set_acid", msg.Source, caller, obs.EventForkDenied, err)
			return pmReply(pmDenyCode(err), EndpointNone)
		}
	}
	ep, err := api.kSpawn(image, acid)
	if err != nil {
		pm.forksDenied++
		return pmReply(codeFromErr(err), EndpointNone)
	}
	pm.forksGranted++
	return pmReply(codeOK, ep)
}

// handleKill audits and executes a kill request.
func (pm *pmServer) handleKill(api *API, msg Message) Message {
	caller := pm.callerACID(msg.Source)
	target := Endpoint(msg.U32(0))

	if err := pm.ledger.Charge(caller, core.SysKill); err != nil {
		pm.killsDenied++
		pm.audit(api, "kill", msg.Source, caller, obs.EventKillDenied, err)
		return pmReply(pmDenyCode(err), EndpointNone)
	}
	if err := api.kKill(target); err != nil {
		pm.killsDenied++
		return pmReply(codeFromErr(err), EndpointNone)
	}
	pm.killsGranted++
	return pmReply(codeOK, EndpointNone)
}

// callerACID resolves the requesting process's access-control identity.
// SendRec keeps the caller blocked until we reply, so it is always live.
func (pm *pmServer) callerACID(src Endpoint) core.ACID {
	if e := pm.k.resolve(src); e != nil {
		return e.acID
	}
	return core.NoACID
}

// pmAuditKey identifies one distinct PM denial. The ledger hands out one
// error value per (subject, call, exhausted), so err compares by identity.
type pmAuditKey struct {
	op     string
	src    string // the caller's name, empty when it is no longer live
	caller core.ACID
	err    error
}

// pmAudit is the memoised text of one distinct PM denial.
type pmAudit struct {
	name, detail, trace string
}

// audit logs one PM denial on the board trace and the security-event
// stream. PM runs as a simulated process, so the engine is parked while
// this executes — touching the event log here is race-free by the same
// argument that lets PM read kernel tables.
func (pm *pmServer) audit(api *API, op string, src Endpoint, caller core.ACID, kind obs.EventKind, err error) {
	key := pmAuditKey{op: op, caller: caller, err: err}
	if e := pm.k.resolve(src); e != nil {
		key.src = e.name
	}
	a, ok := pm.audits[key]
	if !ok {
		a = pmAudit{
			name:   key.src,
			detail: fmt.Sprintf("%s: %v", op, err),
			trace:  fmt.Sprintf("DENY %s by acid=%d: %v", op, caller, err),
		}
		if a.name == "" {
			a.name = fmt.Sprintf("acid=%d", caller)
		}
		if pm.audits == nil {
			pm.audits = make(map[pmAuditKey]pmAudit)
		}
		pm.audits[key] = a
	}
	pm.k.events.Emit(obs.SecurityEvent{
		Kind:      kind,
		Mechanism: obs.MechSyscallMask,
		Denied:    true,
		Src:       a.name,
		Dst:       PMName,
		Detail:    a.detail,
	})
	api.Trace("minix-pm", a.trace)
}

// pmDenyCode distinguishes quota exhaustion from plain policy denial on the
// wire.
func pmDenyCode(err error) int32 {
	if errors.Is(err, core.ErrNoQuotaLeft) {
		return codeEQuota
	}
	return codeEPerm
}

// pmReply builds the PM's standard reply message.
func pmReply(code int32, ep Endpoint) Message {
	reply := NewMessage(TypePMReply)
	reply.PutU32(0, uint32(code))
	reply.PutU32(4, uint32(ep))
	return reply
}

// kSpawn and kKill are the privileged kernel calls system servers use.

func (a *API) kSpawn(image string, acid core.ACID) (Endpoint, error) {
	a.kSpawnScratch = kSpawnReq{image: image, acid: acidArg(acid)}
	reply := a.ctx.Trap(&a.kSpawnScratch).(*epReply)
	return reply.ep, reply.err
}

func (a *API) kKill(target Endpoint) error {
	a.kKillScratch = kKillReq{target: target}
	return a.ctx.Trap(&a.kKillScratch).(*errReply).err
}

// PMView exposes PM audit state to experiments without letting them mutate
// it.
type PMView struct {
	pm *pmServer
}

// ForksGranted returns the number of fork2 requests PM has allowed.
func (v *PMView) ForksGranted() int64 { return v.pm.forksGranted }

// ForksDenied returns the number of fork2 requests PM has denied.
func (v *PMView) ForksDenied() int64 { return v.pm.forksDenied }

// KillsGranted returns the number of kill requests PM has allowed.
func (v *PMView) KillsGranted() int64 { return v.pm.killsGranted }

// KillsDenied returns the number of kill requests PM has denied.
func (v *PMView) KillsDenied() int64 { return v.pm.killsDenied }

// ForkQuotaRemaining reports the unspent fork budget for a subject.
func (v *PMView) ForkQuotaRemaining(subject core.ACID) int {
	return v.pm.ledger.Remaining(subject, core.SysFork)
}
