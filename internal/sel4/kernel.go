package sel4

import (
	"errors"
	"fmt"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// Kernel errors.
var (
	// ErrInvalidCap reports an invocation of an empty or wrong-kind slot:
	// what a brute-forcing attacker sees on every probe.
	ErrInvalidCap = errors.New("sel4: invalid capability")
	// ErrNoRights reports a capability lacking the required rights.
	ErrNoRights = errors.New("sel4: capability lacks required rights")
	// ErrWouldBlock reports an NB operation that found no partner.
	ErrWouldBlock = errors.New("sel4: would block")
	// ErrNoReplyCap reports Reply without a pending reply capability.
	ErrNoReplyCap = errors.New("sel4: no reply capability")
	// ErrCallAborted reports a Call whose server died before replying.
	ErrCallAborted = errors.New("sel4: call aborted (reply capability destroyed)")
	// ErrCSpaceFull reports no free slot for a transferred capability.
	ErrCSpaceFull = errors.New("sel4: capability space full")
	// ErrBadSlot reports a CNode operation on an out-of-range slot.
	ErrBadSlot = errors.New("sel4: slot out of range")
	// ErrNotStarted reports Start on an unknown or already started TCB.
	ErrNotStarted = errors.New("sel4: thread cannot be started")
	// ErrSuspended reports an invocation on a suspended TCB.
	ErrSuspended = errors.New("sel4: thread is suspended")
	// ErrBadHandle reports an invalid network handle.
	ErrBadHandle = errors.New("sel4: bad descriptor")
	// ErrMsgLost reports a message lost in transit (fault injection); seL4
	// proper has no such error, but the simulated transport fault layer
	// needs a way to abort a Call whose request evaporated.
	ErrMsgLost = errors.New("sel4: message lost in transit")
)

// The kernel's IPC wait phases, beside the shared sleep and network ones.
const (
	stateBlockedSend = machine.WaitKernel + iota
	stateBlockedRecv
	stateBlockedCall // awaiting reply
	stateBlockedNotif
)

// tcb is the kernel-side thread control block.
type tcb struct {
	// Wait is the thread's wait record, with its engine PID once started.
	machine.Wait
	id   ObjID
	name string
	prio int
	body func(api *API)
	// cspace is the thread's CNode. The image sizes it to its highest
	// slot; it grows only when a runtime copy, mint or capability
	// transfer writes past its end, up to CSpaceSize. A slot past its end
	// is empty.
	cspace []Capability

	started   bool
	suspended bool

	// frame is the thread's trap frame: a blocked trap's reply is written
	// into it before the thread is woken, and a blocked sender's message
	// waits in it until a receiver takes it.
	frame *machine.Frame

	// Blocked-send context.
	sendCap   Capability
	wantsCall bool

	// replyCap is the one-time reply capability produced by receiving a
	// Call.
	replyCap *replyObj

	// span is the open Call round-trip span, zero outside a Call.
	span obs.SpanID

	// edges holds, per object ID, the interned IPC edges this thread uses
	// through a capability to that endpoint or notification: bound when
	// the capability is installed, so a delivery books its edges by index.
	edges []capEdges

	// socks is the thread's socket table, made on its first listen.
	socks *vnet.Sockets

	// replyObject backs replyCap: at most one reply capability is live per
	// receiver (a newer Call delivery replaces the pointer), so the object
	// can live inline instead of a per-Call heap allocation.
	replyObject replyObj
}

// capEdges are a thread's interned edges through one endpoint or
// notification object: out is its send (signal) edge into the object, in
// its recv (wait) edge out of it, and call its Call span's edge.
type capEdges struct {
	out, in, call obs.EdgeID
	bound         bool
}

// endpointObj is a rendezvous endpoint: "endpoints are implemented as wait
// queues".
type endpointObj struct {
	id    ObjID
	name  string
	sendQ []*tcb
	recvQ []*tcb
}

// deviceObj exposes one bus device through a capability.
type deviceObj struct {
	id  ObjID
	dev machine.DeviceID
}

// netPortObj exposes one network port through a capability.
type netPortObj struct {
	id   ObjID
	port vnet.Port
}

// replyObj is a one-time reply capability.
type replyObj struct {
	caller *tcb
	used   bool
}

// Config parameterises the kernel.
type Config struct {
	// Net is the board network stack; nil boards have no network.
	Net *vnet.Stack
}

// Kernel is the simulated seL4 kernel: the board's trap handler plus the
// object and capability tables.
type Kernel struct {
	machine.IPCFaults
	m   *machine.Machine
	cfg Config

	nextObj ObjID
	eps     map[ObjID]*endpointObj
	tcbs    map[ObjID]*tcb
	devs    map[ObjID]*deviceObj
	ports   map[ObjID]*netPortObj
	notifs  map[ObjID]*notificationObj
	byPID   map[machine.PID]*tcb

	// waits is the wait layer every blocking trap parks its caller in,
	// and traps the process traps, whose device check is devAccess.
	waits *machine.Waits
	traps machine.ProcTraps

	// Observability hooks, resolved once at construction.
	tracer        *obs.Tracer
	edges         *obs.Edges
	events        *obs.EventLog
	mSends        *obs.Counter
	mRecvs        *obs.Counter
	mCalls        *obs.Counter
	mReplies      *obs.Counter
	mDelivered    *obs.Counter
	mCapFaults    *obs.Counter
	mRightsDenied *obs.Counter
	mSuspends     *obs.Counter
	mCallNs       *obs.Histogram
	mEPQ          *obs.Gauge

	// refusals books every capability fault.
	refusals machine.Refusals[capFault]
}

// capFault names one distinct capability fault by everything its text
// mentions: the faulting thread src, and what it presented.
type capFault struct {
	why  faultKind
	src  string
	cptr CPtr
	// kind is the object kind an invalid slot was asked for.
	kind ObjKind
	// dst is a CNode copy's destination slot.
	dst CPtr
	// have and need are a rights fault's rights, and obj the object it or
	// a grant fault names.
	have, need Rights
	obj        ObjID
	// kill books the fault's TCB_Suspend as a blocked kill.
	kill bool
}

// faultKind says why a capability invocation faulted.
type faultKind uint8

const (
	faultNone    faultKind = iota
	faultInvalid           // the slot is out of range, empty, or of another kind
	faultRights            // the capability lacks the rights the invocation needs
	faultGrant             // a send carries a capability without the grant right
	faultCopy              // a CNode copy or mint names a slot past the CSpace
	faultDelete            // a CNode delete names a slot past the CSpace
)

var _ machine.TrapHandler = (*Kernel)(nil)

// NewKernel installs an seL4 kernel on a board. Object construction and
// capability distribution happen through the returned kernel's root-task
// methods before the board runs (or between run slices).
func NewKernel(m *machine.Machine, cfg Config) *Kernel {
	k := &Kernel{
		m:       m,
		cfg:     cfg,
		nextObj: 1,
		eps:     make(map[ObjID]*endpointObj),
		tcbs:    make(map[ObjID]*tcb),
		devs:    make(map[ObjID]*deviceObj),
		ports:   make(map[ObjID]*netPortObj),
		notifs:  make(map[ObjID]*notificationObj),
		byPID:   make(map[machine.PID]*tcb),
	}
	k.waits = machine.NewWaits(m.Engine(), func(pid machine.PID) *machine.Wait {
		if t := k.byPID[pid]; t != nil {
			return &t.Wait
		}
		return nil
	}, machine.WaitNone, nil, nil)
	k.traps = machine.NewProcTraps(m, k.waits, trapProc, k.devAccess)
	k.refusals = machine.NewRefusals(m, k.capFaultOf)
	board := m.Obs()
	board.Events().SetPlatform("sel4")
	k.tracer = board.Tracer()
	k.edges = board.Edges()
	k.events = board.Events()
	reg := board.Metrics()
	k.mSends = reg.Counter("sel4_ipc_send_total")
	k.mRecvs = reg.Counter("sel4_ipc_recv_total")
	k.mCalls = reg.Counter("sel4_ipc_call_total")
	k.mReplies = reg.Counter("sel4_ipc_reply_total")
	k.mDelivered = reg.Counter("sel4_ipc_delivered_total")
	k.mCapFaults = reg.Counter("sel4_cap_faults_total")
	k.mRightsDenied = reg.Counter("sel4_rights_denied_total")
	k.mSuspends = reg.Counter("sel4_suspends_total")
	k.mCallNs = reg.Histogram("sel4_call_roundtrip_ns", nil)
	k.mEPQ = reg.Gauge("sel4_ep_queue_depth")
	m.Engine().SetHandler(k)
	return k
}

// Machine returns the underlying board.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// Events returns the board security-event log (shared with the machine).
func (k *Kernel) Events() *obs.EventLog { return k.events }

// --- Root-task object construction -----------------------------------------

// CreateEndpoint allocates an IPC endpoint object.
func (k *Kernel) CreateEndpoint(name string) ObjID {
	id := k.allocID()
	k.eps[id] = &endpointObj{id: id, name: name}
	return id
}

// CreateDevice allocates a device object backed by a bus device.
func (k *Kernel) CreateDevice(dev machine.DeviceID) ObjID {
	id := k.allocID()
	k.devs[id] = &deviceObj{id: id, dev: dev}
	return id
}

// CreateNetPort allocates a network-port object.
func (k *Kernel) CreateNetPort(port vnet.Port) ObjID {
	id := k.allocID()
	k.ports[id] = &netPortObj{id: id, port: port}
	return id
}

// CreateThread allocates a TCB with an empty CSpace. The thread does not run
// until Start.
func (k *Kernel) CreateThread(name string, prio int, body func(api *API)) ObjID {
	id := k.allocID()
	k.tcbs[id] = &tcb{
		id:   id,
		name: name,
		prio: prio,
		body: body,
	}
	return id
}

// SlotCap is one boot capability and the CSpace slot it is installed in.
type SlotCap struct {
	Slot CPtr
	Cap  Capability
}

// InstallCap writes a capability into a thread's CSpace slot (root-task
// privilege; at runtime capabilities move only via IPC grant).
func (k *Kernel) InstallCap(tcbID ObjID, slot CPtr, cap Capability) error {
	return k.InstallCaps(tcbID, []SlotCap{{Slot: slot, Cap: cap}})
}

// InstallCaps writes a thread's boot capabilities into its CSpace
// (root-task privilege), growing the CSpace once to the highest slot they
// name: a thread's CNode is as large as its image makes it.
func (k *Kernel) InstallCaps(tcbID ObjID, caps []SlotCap) error {
	t, ok := k.tcbs[tcbID]
	if !ok {
		return fmt.Errorf("%w: tcb %d", ErrInvalidCap, tcbID)
	}
	n := 0
	for _, c := range caps {
		if c.Slot >= CSpaceSize {
			return fmt.Errorf("%w: %d", ErrBadSlot, c.Slot)
		}
		n = max(n, int(c.Slot)+1)
	}
	t.reach(n)
	for _, c := range caps {
		t.cspace[c.Slot] = c.Cap
		k.edgesOf(t, c.Cap.Object)
	}
	return nil
}

// reach grows t's CSpace to at least n slots.
func (t *tcb) reach(n int) {
	if n > len(t.cspace) {
		t.cspace = append(t.cspace, make([]Capability, n-len(t.cspace))...)
	}
}

// slot returns the capability in s, empty past the CSpace's end.
func (t *tcb) slot(s CPtr) Capability {
	if s < CPtr(len(t.cspace)) {
		return t.cspace[s]
	}
	return Capability{}
}

// setSlot writes c into s, which must be below CSpaceSize, growing the
// CSpace to hold it; emptying a slot past the end leaves the CSpace as it is.
func (t *tcb) setSlot(s CPtr, c Capability) {
	if s >= CPtr(len(t.cspace)) {
		if c.IsNull() {
			return
		}
		t.reach(int(s) + 1)
	}
	t.cspace[s] = c
}

// edgesOf returns t's interned edges through object obj, binding them on
// first use. Root-task installs bind eagerly, so only a capability that
// arrived by transfer binds on its first delivery.
func (k *Kernel) edgesOf(t *tcb, obj ObjID) capEdges {
	if int(obj) < len(t.edges) && t.edges[obj].bound {
		return t.edges[obj]
	}
	var e capEdges
	if ep, ok := k.eps[obj]; ok {
		e = internCapEdges(k.edges, t.name, ep.name, KindEndpoint)
	} else if n, ok := k.notifs[obj]; ok {
		e = internCapEdges(k.edges, t.name, n.name, KindNotification)
	} else {
		return e
	}
	if n := int(obj) + 1 - len(t.edges); n > 0 {
		t.edges = append(t.edges, make([]capEdges, n)...)
	}
	t.edges[obj] = e
	return e
}

// InternCapEdges interns into edges every IPC edge the thread named thread
// books through a capability to the endpoint or notification named object,
// as the kernel names them when it installs one. A boot image interns its
// threads' edges once with it, into the base every board's table starts
// from (obs.Edges.SetBase), so a board's boot interns nothing new.
func InternCapEdges(edges *obs.Edges, thread, object string, kind ObjKind) {
	internCapEdges(edges, thread, object, kind)
}

// internCapEdges interns a thread's edges through one endpoint or
// notification; any other kind has none.
func internCapEdges(edges *obs.Edges, thread, object string, kind ObjKind) capEdges {
	switch kind {
	case KindEndpoint:
		return capEdges{
			out:   edges.Intern(thread, object, "send"),
			in:    edges.Intern(object, thread, "recv"),
			call:  edges.Intern(thread, object, "call"),
			bound: true,
		}
	case KindNotification:
		return capEdges{
			out:   edges.Intern(thread, object, "signal"),
			in:    edges.Intern(object, thread, "wait"),
			bound: true,
		}
	}
	return capEdges{}
}

// Start launches a created thread.
func (k *Kernel) Start(tcbID ObjID) error {
	t, ok := k.tcbs[tcbID]
	if !ok || t.started {
		return ErrNotStarted
	}
	body := t.body
	proc, err := k.m.Engine().Spawn(t.name, t.prio, func(ctx *machine.Context) {
		body(&API{SocketAPI: vnet.NewSocketAPI(ctx, trapNetListen), ProcAPI: machine.NewProcAPI(ctx, trapProc), ctx: ctx, f: ctx.Frame()})
	})
	if err != nil {
		return fmt.Errorf("sel4: starting %q: %w", t.name, err)
	}
	t.PID = proc.PID()
	t.frame = proc.Frame()
	t.started = true
	k.byPID[proc.PID()] = t
	k.m.Trace().Logf("sel4", "start %s tcb=%d", t.name, t.id)
	return nil
}

// EndpointCap builds an endpoint capability.
func EndpointCap(ep ObjID, rights Rights, badge Badge) Capability {
	return Capability{Object: ep, Kind: KindEndpoint, Rights: rights, Badge: badge}
}

// TCBCap builds a TCB capability.
func TCBCap(tcbID ObjID, rights Rights) Capability {
	return Capability{Object: tcbID, Kind: KindTCB, Rights: rights}
}

// DeviceCap builds a device capability.
func DeviceCap(dev ObjID, rights Rights) Capability {
	return Capability{Object: dev, Kind: KindDevice, Rights: rights}
}

// NetPortCap builds a network-port capability.
func NetPortCap(port ObjID, rights Rights) Capability {
	return Capability{Object: port, Kind: KindNetPort, Rights: rights}
}

// CapsOf returns a copy of a thread's CSpace (experiment inspection and
// CapDL verification).
func (k *Kernel) CapsOf(tcbID ObjID) ([]Capability, error) {
	t, ok := k.tcbs[tcbID]
	if !ok {
		return nil, fmt.Errorf("%w: tcb %d", ErrInvalidCap, tcbID)
	}
	out := make([]Capability, CSpaceSize)
	copy(out, t.cspace)
	return out, nil
}

// CapCount reports the number of non-null slots in a thread's CSpace.
func (k *Kernel) CapCount(tcbID ObjID) (int, error) {
	t, ok := k.tcbs[tcbID]
	if !ok {
		return 0, fmt.Errorf("%w: tcb %d", ErrInvalidCap, tcbID)
	}
	n := 0
	for _, c := range t.cspace {
		if !c.IsNull() {
			n++
		}
	}
	return n, nil
}

// KillThread kills the named thread as if it had faulted, without marking
// the TCB suspended: ThreadAlive goes false through the engine state, and a
// monitor component may respawn the component from its spec. This is the
// fault-injection crash entry point, distinct from the capability-mediated
// TCB_Suspend path.
func (k *Kernel) KillThread(tcbID ObjID) error {
	t, ok := k.tcbs[tcbID]
	if !ok || !t.started {
		return ErrNotStarted
	}
	p := k.m.Engine().Proc(t.PID)
	if p == nil || p.State() == machine.StateDead {
		return ErrSuspended
	}
	k.m.Trace().Logf("sel4", "FAULT-INJECT kill %s tcb=%d", t.name, t.id)
	return k.m.Engine().Kill(t.PID)
}

// ThreadAlive reports whether a thread is started and not suspended/dead.
func (k *Kernel) ThreadAlive(tcbID ObjID) bool {
	t, ok := k.tcbs[tcbID]
	if !ok || !t.started || t.suspended {
		return false
	}
	p := k.m.Engine().Proc(t.PID)
	return p != nil && p.State() != machine.StateDead
}

func (k *Kernel) allocID() ObjID {
	id := k.nextObj
	k.nextObj++
	return id
}

// lookupCap resolves a thread's slot with a required kind and rights.
// Every failure is a capability fault, booked on the refusal record (this
// is what an attacker brute-forcing CPtrs looks like in the unified view).
func (k *Kernel) lookupCap(t *tcb, cptr CPtr, kind ObjKind, rights Rights) (Capability, error) {
	c, fault := capAt(t, cptr, kind, rights)
	if fault.why != faultNone {
		return Capability{}, k.refusals.Book(fault).Err
	}
	return c, nil
}

// capAt resolves a thread's slot with a required kind and rights, or
// names the capability fault it is, unbooked.
func capAt(t *tcb, cptr CPtr, kind ObjKind, rights Rights) (Capability, capFault) {
	c := t.slot(cptr)
	switch {
	case c.IsNull() || c.Kind != kind:
		return Capability{}, capFault{why: faultInvalid, src: t.name, cptr: cptr, kind: kind}
	case !c.Rights.Has(rights):
		return Capability{}, capFault{why: faultRights, src: t.name, cptr: cptr,
			have: c.Rights, need: rights, obj: c.Object}
	}
	return c, capFault{}
}

// capFaultOf builds the Refusal of f, once per distinct fault.
func (k *Kernel) capFaultOf(f capFault) machine.Refusal {
	if f.kill {
		f.kill = false
		err := k.capFaultOf(f).Err
		return machine.Refusal{Err: err, Event: obs.SecurityEvent{Kind: obs.EventKillDenied,
			Mechanism: obs.MechCapability, Src: f.src, Detail: "TCB_Suspend: " + err.Error()}}
	}
	r := machine.Refusal{Counter: k.mCapFaults,
		Event: obs.SecurityEvent{Kind: obs.EventCapFault, Mechanism: obs.MechCapability, Src: f.src}}
	switch {
	case f.why == faultGrant:
		r.Err = fmt.Errorf("%w: cap transfer needs grant", ErrNoRights)
		r.Counter, r.Event.Dst, r.Event.Detail = k.mRightsDenied, k.objName(f.obj), "cap transfer needs grant"
	case f.why == faultDelete:
		r.Err = fmt.Errorf("%w: %d", ErrBadSlot, f.cptr)
		r.Event.Detail = fmt.Sprintf("CNode delete: slot %d out of range", f.cptr)
	case f.why == faultCopy:
		r.Err = fmt.Errorf("%w: %d/%d", ErrBadSlot, f.cptr, f.dst)
		r.Event.Detail = fmt.Sprintf("CNode copy: slot %d/%d out of range", f.cptr, f.dst)
	case f.why == faultRights:
		r.Err = fmt.Errorf("%w: slot %d has %v, needs %v", ErrNoRights, f.cptr, f.have, f.need)
		r.Counter, r.Event.Dst = k.mRightsDenied, k.objName(f.obj)
		r.Event.Detail = fmt.Sprintf("slot %d has %v, needs %v", f.cptr, f.have, f.need)
	case f.cptr >= CSpaceSize:
		r.Err = fmt.Errorf("%w: slot %d", ErrInvalidCap, f.cptr)
		r.Event.Detail = fmt.Sprintf("slot %d out of range", f.cptr)
	case f.kind == 0:
		r.Err = fmt.Errorf("%w: slot %d", ErrInvalidCap, f.cptr)
		r.Event.Detail = fmt.Sprintf("slot %d empty", f.cptr)
	default:
		r.Err = fmt.Errorf("%w: slot %d", ErrInvalidCap, f.cptr)
		r.Event.Detail = fmt.Sprintf("slot %d empty or not %v", f.cptr, f.kind)
	}
	return r
}

// objName resolves an object ID to the name events give it: an endpoint,
// notification or thread by its name, a device by its bus name (as MINIX
// and Linux name it), and a network port by its number.
func (k *Kernel) objName(id ObjID) string {
	if ep, ok := k.eps[id]; ok {
		return ep.name
	}
	if n, ok := k.notifs[id]; ok {
		return n.name
	}
	if t, ok := k.tcbs[id]; ok {
		return t.name
	}
	if d, ok := k.devs[id]; ok {
		return string(d.dev)
	}
	if p, ok := k.ports[id]; ok {
		return fmt.Sprintf("port-%d", p.port)
	}
	return fmt.Sprintf("obj-%d", id)
}

// freeSlot finds the lowest empty CSpace slot, past the CSpace's end when
// every slot it holds is taken.
func freeSlot(t *tcb) (CPtr, bool) {
	for i, c := range t.cspace {
		if c.IsNull() {
			return CPtr(i), true
		}
	}
	if n := len(t.cspace); n < CSpaceSize {
		return CPtr(n), true
	}
	return 0, false
}

// tcbOf maps a trapping PID to its TCB.
func (k *Kernel) tcbOf(pid machine.PID) *tcb {
	t, ok := k.byPID[pid]
	if !ok {
		panic(fmt.Sprintf("sel4: trap from unknown pid %d", pid))
	}
	return t
}
