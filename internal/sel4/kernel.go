package sel4

import (
	"errors"
	"fmt"
	"time"

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

// Stats counts kernel events for the experiments.
type Stats struct {
	IPCDelivered    int64
	InvalidCapErrs  int64
	RightsDenied    int64
	CapsTransferred int64
	Suspends        int64
	Calls           int64
	Replies         int64
	Signals         int64
}

// tcbState tracks why a thread is not running.
type tcbState int

const (
	stateReady tcbState = iota
	stateBlockedSend
	stateBlockedRecv
	stateBlockedCall // awaiting reply
	stateSleeping
	stateNetBlocked
	stateBlockedNotif
	stateSuspendedDead
)

// tcb is the kernel-side thread control block.
type tcb struct {
	id     ObjID
	name   string
	prio   int
	pid    machine.PID
	body   func(api *API)
	cspace [CSpaceSize]Capability

	state     tcbState
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

	waitToken uint64

	// span is the open Call round-trip span, zero outside a Call.
	span obs.SpanID

	// edges holds, per object ID, the interned IPC edges this thread uses
	// through a capability to that endpoint or notification: bound when
	// the capability is installed, so a delivery books its edges by index.
	edges []capEdges

	// Network handles.
	nextHandle int32
	listeners  map[int32]*vnet.Listener
	conns      map[int32]*vnet.Conn

	// onSleep is the thread's sleep timer callback, built once at Start and
	// re-armed for every Sleep with the sleep's token
	// (machine.Clock.AfterToken).
	onSleep func(token uint64)

	// onNet is the thread's network waker, built on its first blocking
	// accept or read and re-armed for every later one with the wait's token
	// (vnet.Stack.WaitConn, WaitReadable). netListener, or netConn and
	// netMax, name the operation the pending firing completes.
	onNet       func(token uint64)
	netListener *vnet.Listener
	netConn     *vnet.Conn
	netMax      int

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
	m   *machine.Machine
	cfg Config

	nextObj ObjID
	eps     map[ObjID]*endpointObj
	tcbs    map[ObjID]*tcb
	devs    map[ObjID]*deviceObj
	ports   map[ObjID]*netPortObj
	notifs  map[ObjID]*notificationObj
	byPID   map[machine.PID]*tcb

	stats Stats

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

	// ipcFault is the fault-injection filter, consulted after capability
	// checks on Send and Call with (thread name, endpoint name). nil when
	// no campaign is armed.
	ipcFault func(src, dst string) (drop bool, delay time.Duration)

	// faults memoises each distinct capability fault's error and event
	// text, so a thread brute-forcing its CSpace costs no formatting: the
	// text depends only on the key.
	faults map[capFaultKey]*capFault
}

// capFaultKey identifies one distinct capability-lookup failure: an
// invalid slot (out of range, empty, or of the wrong kind) or a slot whose
// rights fall short.
type capFaultKey struct {
	cptr       CPtr
	kind       ObjKind
	rights     bool
	have, need Rights
	obj        ObjID
}

// capFault is the memoised output of one distinct capability fault.
type capFault struct {
	err    error
	detail string
	dst    string // the object a rights fault names, empty otherwise
	// kill is the blocked-kill event detail, built when a TCB_Suspend
	// first hits this fault.
	kill string
}

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

// Stats returns a snapshot of kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

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
		id:        id,
		name:      name,
		prio:      prio,
		body:      body,
		listeners: make(map[int32]*vnet.Listener),
		conns:     make(map[int32]*vnet.Conn),
	}
	return id
}

// InstallCap writes a capability into a thread's CSpace slot (root-task
// privilege; at runtime capabilities move only via IPC grant).
func (k *Kernel) InstallCap(tcbID ObjID, slot CPtr, cap Capability) error {
	t, ok := k.tcbs[tcbID]
	if !ok {
		return fmt.Errorf("%w: tcb %d", ErrInvalidCap, tcbID)
	}
	if int(slot) >= CSpaceSize {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	t.cspace[slot] = cap
	k.edgesOf(t, cap.Object)
	return nil
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
		e = capEdges{
			out:  k.edges.Intern(t.name, ep.name, "send"),
			in:   k.edges.Intern(ep.name, t.name, "recv"),
			call: k.edges.Intern(t.name, ep.name, "call"),
		}
	} else if n, ok := k.notifs[obj]; ok {
		e = capEdges{
			out: k.edges.Intern(t.name, n.name, "signal"),
			in:  k.edges.Intern(n.name, t.name, "wait"),
		}
	} else {
		return e
	}
	e.bound = true
	if n := int(obj) + 1 - len(t.edges); n > 0 {
		t.edges = append(t.edges, make([]capEdges, n)...)
	}
	t.edges[obj] = e
	return e
}

// Start launches a created thread.
func (k *Kernel) Start(tcbID ObjID) error {
	t, ok := k.tcbs[tcbID]
	if !ok || t.started {
		return ErrNotStarted
	}
	body := t.body
	proc, err := k.m.Engine().Spawn(t.name, t.prio, func(ctx *machine.Context) {
		body(&API{ctx: ctx, f: ctx.Frame()})
	})
	if err != nil {
		return fmt.Errorf("sel4: starting %q: %w", t.name, err)
	}
	t.pid = proc.PID()
	t.frame = proc.Frame()
	t.started = true
	k.buildWaker(t)
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
	copy(out, t.cspace[:])
	return out, nil
}

// CapCount reports the number of non-null slots in a thread's CSpace.
func (k *Kernel) CapCount(tcbID ObjID) (int, error) {
	caps, err := k.CapsOf(tcbID)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range caps {
		if !c.IsNull() {
			n++
		}
	}
	return n, nil
}

// SetIPCFault installs fn as the fault-injection IPC filter, consulted
// after capability checks pass with the sending thread's name and the
// endpoint's name. drop loses the message, delay postpones its delivery.
// nil clears the filter. Transport faults are not capability faults: denial
// events still come only from real rights failures.
func (k *Kernel) SetIPCFault(fn func(src, dst string) (drop bool, delay time.Duration)) {
	k.ipcFault = fn
}

// faultFor consults the installed IPC fault filter.
func (k *Kernel) faultFor(src, dst string) (bool, time.Duration) {
	if k.ipcFault == nil {
		return false, 0
	}
	return k.ipcFault(src, dst)
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
	p := k.m.Engine().Proc(t.pid)
	if p == nil || p.State() == machine.StateDead {
		return ErrSuspended
	}
	k.m.Trace().Logf("sel4", "FAULT-INJECT kill %s tcb=%d", t.name, t.id)
	return k.m.Engine().Kill(t.pid)
}

// ThreadAlive reports whether a thread is started and not suspended/dead.
func (k *Kernel) ThreadAlive(tcbID ObjID) bool {
	t, ok := k.tcbs[tcbID]
	if !ok || !t.started || t.suspended {
		return false
	}
	p := k.m.Engine().Proc(t.pid)
	return p != nil && p.State() != machine.StateDead
}

func (k *Kernel) allocID() ObjID {
	id := k.nextObj
	k.nextObj++
	return id
}

// lookupCap resolves a thread's slot with a required kind and rights.
// Every failure is a capability fault: counted, and emitted on the
// security-event stream (this is what an attacker brute-forcing CPtrs
// looks like in the unified view).
func (k *Kernel) lookupCap(t *tcb, cptr CPtr, kind ObjKind, rights Rights) (Capability, error) {
	c, f := k.lookup(t, cptr, kind, rights)
	if f != nil {
		return Capability{}, f.err
	}
	return c, nil
}

// lookup is lookupCap returning the memoised fault itself, for callers that
// describe the failure further.
func (k *Kernel) lookup(t *tcb, cptr CPtr, kind ObjKind, rights Rights) (Capability, *capFault) {
	var c Capability
	if int(cptr) < CSpaceSize {
		c = t.cspace[cptr]
	}
	if c.IsNull() || c.Kind != kind {
		k.stats.InvalidCapErrs++
		k.mCapFaults.Inc()
		f := k.capFaultFor(capFaultKey{cptr: cptr, kind: kind})
		k.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventCapFault,
			Mechanism: obs.MechCapability,
			Denied:    true,
			Src:       t.name,
			Detail:    f.detail,
		})
		return Capability{}, f
	}
	if !c.Rights.Has(rights) {
		k.stats.RightsDenied++
		k.mRightsDenied.Inc()
		f := k.capFaultFor(capFaultKey{cptr: cptr, rights: true, have: c.Rights, need: rights, obj: c.Object})
		k.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventCapFault,
			Mechanism: obs.MechCapability,
			Denied:    true,
			Src:       t.name,
			Dst:       f.dst,
			Detail:    f.detail,
		})
		return Capability{}, f
	}
	return c, nil
}

// capFaultFor returns the memoised error and text of one capability fault,
// building them on the first occurrence.
func (k *Kernel) capFaultFor(key capFaultKey) *capFault {
	if f, ok := k.faults[key]; ok {
		return f
	}
	f := &capFault{}
	switch {
	case key.rights:
		f.err = fmt.Errorf("%w: slot %d has %v, needs %v", ErrNoRights, key.cptr, key.have, key.need)
		f.detail = fmt.Sprintf("slot %d has %v, needs %v", key.cptr, key.have, key.need)
		f.dst = k.objName(key.obj)
	case int(key.cptr) >= CSpaceSize:
		f.err = fmt.Errorf("%w: slot %d", ErrInvalidCap, key.cptr)
		f.detail = fmt.Sprintf("slot %d out of range", key.cptr)
	default:
		f.err = fmt.Errorf("%w: slot %d", ErrInvalidCap, key.cptr)
		f.detail = fmt.Sprintf("slot %d empty or not %v", key.cptr, key.kind)
	}
	if k.faults == nil {
		k.faults = make(map[capFaultKey]*capFault)
	}
	k.faults[key] = f
	return f
}

// objName best-effort resolves an object ID to a human name for events.
func (k *Kernel) objName(id ObjID) string {
	if ep, ok := k.eps[id]; ok {
		return ep.name
	}
	if t, ok := k.tcbs[id]; ok {
		return t.name
	}
	return fmt.Sprintf("obj-%d", id)
}

// endSpan closes t's open Call span, if any, observing round-trip latency
// on delivery.
func (k *Kernel) endSpan(t *tcb, outcome obs.Outcome) {
	if t.span == 0 {
		return
	}
	d, ok := k.tracer.End(t.span, outcome)
	t.span = 0
	if ok && outcome == obs.OutcomeDelivered {
		k.mCallNs.Observe(time.Duration(d))
	}
}

// freeSlot finds the lowest empty CSpace slot.
func freeSlot(t *tcb) (CPtr, bool) {
	for i := range t.cspace {
		if t.cspace[i].IsNull() {
			return CPtr(i), true
		}
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
