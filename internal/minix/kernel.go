package minix

import (
	"fmt"
	"time"

	"mkbas/internal/core"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// EndpointSystem is the kernel's own endpoint, used as the source of
// kernel-generated messages (driver-exit reports to the reincarnation
// server). It is never allocated to a process.
const EndpointSystem Endpoint = 0xFFFFFFFE

// TypeProcExit is the kernel message type reporting a process exit to the
// reincarnation server. It uses the top of the 0..63 type space, which the
// scenario policies never grant to user processes.
const TypeProcExit int32 = 63

// Image is a loadable process binary: in the simulator, a Go function plus
// the static privileges the boot image assigns. Images are registered before
// boot and instantiated by fork2/exec (through PM) or directly by Boot.
type Image struct {
	// Name is the image's binary name; spawned processes are auto-published
	// under it in the kernel directory service.
	Name string
	// Body is the program.
	Body func(api *API)
	// UID is the Unix user ID the process runs under. It exists for fidelity
	// with the paper's root-privilege experiments: IPC and ACM decisions
	// never consult it.
	UID int
	// Priority is the scheduling priority (0 most urgent, 15 least).
	Priority int
	// Devices lists bus devices the process may access (drivers only).
	Devices []machine.DeviceID
	// Net grants access to the network stack (the web interface only).
	Net bool
	// Server marks a system server: it may invoke privileged kernel calls,
	// and IPC to/from it bypasses the user ACM (it performs its own
	// auditing, like PM).
	Server bool
	// Restart asks the reincarnation server to respawn the process when it
	// crashes (device drivers in the scenario).
	Restart bool
}

// Config parameterises the kernel.
type Config struct {
	// DisableACM turns off the access control matrix, yielding a vanilla
	// MINIX 3 for ablation experiments. The zero value enforces the ACM.
	DisableACM bool
	// MailboxCap bounds each process's asynchronous mailbox; zero means 16.
	MailboxCap int
	// Net is the board's network stack; nil boards have no network.
	Net *vnet.Stack
}

// Stats counts kernel-level events for the experiments.
type Stats struct {
	IPCDelivered int64
	IPCDenied    int64
	Notifies     int64
	AsyncQueued  int64
	DevReads     int64
	DevWrites    int64
	Spawns       int64
	Kills        int64
	Crashes      int64
}

// ipcPhase records why a process is blocked, if it is.
type ipcPhase uint8

const (
	phaseIdle ipcPhase = iota
	phaseSendBlocked
	phaseRecvBlocked
	phaseSleeping
	phaseNetBlocked
)

// procEntry is the kernel-side process control block. The paper's ac_id
// addition is the acID field. Small fields sit together so the entry fills
// a 224-byte allocation: a fork bomb keeps thousands of them live.
type procEntry struct {
	pid  machine.PID
	ep   Endpoint
	acID core.ACID
	// who is the process's (name, acID) identity as a small integer, the
	// key half of the IPC cells its deliveries use.
	who  uint32
	name string
	// acName is the policy spelling of acID, resolved once at spawn.
	acName string

	isServer  bool
	restart   bool
	netAccess bool
	devs      map[machine.DeviceID]bool

	// frame is the process's trap frame: a blocked trap's reply is written
	// into it before the process is woken, and a blocked sender's message
	// waits in it until a receiver takes it.
	frame *machine.Frame

	// IPC state.
	phase       ipcPhase
	wantSendRec bool
	// exiting marks a voluntary exit() so OnProcExit does not count it as a
	// crash.
	exiting  bool
	recvFrom Endpoint
	senders  []machine.PID
	notifies []Endpoint
	mailbox  []Message

	// waitToken invalidates stale timer/network callbacks after the process
	// unblocks or dies.
	waitToken uint64

	// span is the open sendrec round-trip span, zero outside a sendrec.
	span obs.SpanID

	// Network handles and memory grants.
	nextHandle int32
	nextGrant  GrantID
	listeners  map[int32]*vnet.Listener
	conns      map[int32]*vnet.Conn
	grants     map[GrantID]*grant

	// onSleep and onRecvTimeout are the process's timer callbacks, built on
	// its first Sleep or ReceiveTimeout (most processes, every fork-bomb
	// child among them, never arm one) and re-armed for every later wait
	// with the wait's token (machine.Clock.AfterToken). A firing whose token
	// is no longer the process's waitToken belongs to a finished wait, or to
	// a dead process, and does nothing.
	onSleep       func(token uint64)
	onRecvTimeout func(token uint64)

	// onNet is the process's network waker, built on its first blocking
	// accept or read and re-armed for every later one with the wait's token
	// (vnet.Stack.WaitConn, WaitReadable). netListener, or netConn and
	// netMax, name the operation the pending firing completes.
	onNet       func(token uint64)
	netListener *vnet.Listener
	netConn     *vnet.Conn
	netMax      int
}

// Kernel is the simulated security-enhanced MINIX 3 kernel: the board's
// machine.TrapHandler plus the process table, directory service, ACM
// enforcement, and device/network mediation.
type Kernel struct {
	m      *machine.Machine
	policy *core.Policy
	cfg    Config

	images map[string]Image
	slots  []*procEntry
	gens   []int
	// byPID maps each live process's engine PID to its entry: PIDs are
	// dense from 1 and never reused, so a slice indexed by PID serves.
	byPID []*procEntry
	names map[string]Endpoint

	// used counts occupied slots and freeLow is a lower bound on the lowest
	// free one: every slot below it is occupied. A full table is then
	// refused in O(1), and a spawn still takes the lowest free slot, the one
	// a scan from slot 0 would find.
	used    int
	freeLow int

	pm *pmServer
	rs *rsServer

	stats Stats

	// Observability hooks, resolved once at boot.
	tracer     *obs.Tracer
	events     *obs.EventLog
	mSends     *obs.Counter
	mSendRecs  *obs.Counter
	mReceives  *obs.Counter
	mNotifies  *obs.Counter
	mSendNBs   *obs.Counter
	mDelivered *obs.Counter
	mDenied    *obs.Counter
	mKills     *obs.Counter
	mSendRecNs *obs.Histogram
	mMailbox   *obs.Gauge

	// edges is the board's IPC edge table. whos interns each process
	// identity at spawn, and cells caches the interned edges of each
	// (sender, receiver, message type) the first time it is used, so a
	// delivery finds its edge ids by integer key without formatting or
	// hashing a string.
	edges *obs.Edges
	whos  map[procIdent]uint32
	cells map[cellKey]cellEdges

	// ipcFault is the fault-injection filter, consulted after ACM checks on
	// every send path. nil when no campaign is armed (the common case).
	ipcFault func(src, dst string) (drop bool, delay time.Duration)

	// denials memoises each distinct ACM denial's error, event detail and
	// trace line, so an attacker repeating a denied send costs no
	// formatting: the text depends only on the key.
	denials map[denialKey]*denial
}

// procIdent is what names a process in its IPC edges: the span names it
// by process name, the usage log by ACM identity.
type procIdent struct {
	name string
	acID core.ACID
}

// cellKey names one (sender, receiver, message type) use of the IPC path
// by the two processes' procEntry.who.
type cellKey struct {
	src, dst uint32
	msgType  int32
}

// cellEdges are one cell's interned edges: use is the delivery the IPC log
// books (ACM names, "mtN"), span the sendrec round trip the tracer records
// (process names, "sendrec mtN").
type cellEdges struct {
	use, span obs.EdgeID
}

// denialKey identifies one distinct ACM denial.
type denialKey struct {
	src, dst string
	srcACID  core.ACID
	dstACID  core.ACID
	msgType  int32
}

// denial is the memoised output of one distinct ACM denial.
type denial struct {
	err    error
	detail string
	trace  string
}

var _ machine.TrapHandler = (*Kernel)(nil)

// Boot installs the kernel on a board and starts the system servers (PM,
// RS). The policy must be sealed; the ACM half is enforced in the kernel on
// every IPC, the syscall half inside PM.
func Boot(m *machine.Machine, policy *core.Policy, cfg Config) (*Kernel, error) {
	if !policy.Sealed() {
		return nil, core.ErrNotSealed
	}
	if cfg.MailboxCap == 0 {
		cfg.MailboxCap = 16
	}
	k := &Kernel{
		m:      m,
		policy: policy,
		cfg:    cfg,
		images: make(map[string]Image),
		slots:  make([]*procEntry, maxSlots),
		gens:   make([]int, maxSlots),
		names:  make(map[string]Endpoint),
		whos:   make(map[procIdent]uint32),
		cells:  make(map[cellKey]cellEdges),
	}
	for i := range k.gens {
		k.gens[i] = 1
	}
	board := m.Obs()
	board.Events().SetPlatform("minix")
	k.tracer = board.Tracer()
	k.events = board.Events()
	k.edges = board.Edges()
	reg := board.Metrics()
	k.mSends = reg.Counter("minix_ipc_send_total")
	k.mSendRecs = reg.Counter("minix_ipc_sendrec_total")
	k.mReceives = reg.Counter("minix_ipc_receive_total")
	k.mNotifies = reg.Counter("minix_ipc_notify_total")
	k.mSendNBs = reg.Counter("minix_ipc_sendnb_total")
	k.mDelivered = reg.Counter("minix_ipc_delivered_total")
	k.mDenied = reg.Counter("minix_ipc_denied_total")
	k.mKills = reg.Counter("minix_kills_total")
	k.mSendRecNs = reg.Histogram("minix_sendrec_roundtrip_ns", nil)
	k.mMailbox = reg.Gauge("minix_mailbox_depth")
	m.Engine().SetHandler(k)

	k.pm = newPMServer(k, policy.Syscalls)
	k.rs = newRSServer(k)
	if _, err := k.startServer(pmImage(k.pm)); err != nil {
		return nil, fmt.Errorf("minix: starting pm: %w", err)
	}
	rsEP, err := k.startServer(rsImage(k.rs))
	if err != nil {
		return nil, fmt.Errorf("minix: starting rs: %w", err)
	}
	k.rs.ep = rsEP
	return k, nil
}

// SetIPCFault installs fn as the fault-injection IPC filter. It runs after
// the ACM allows a delivery, with the sender's and receiver's process names;
// drop loses the message in transit, delay postpones delivery. nil clears
// the filter. Transport faults model flaky drivers, not policy: denials
// still come only from the ACM.
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

// CrashProcess kills the named process as if it had faulted: unlike the
// policy-mediated kill path it does not mark the victim as exiting, so
// OnProcExit reports the death to the reincarnation server like any crash.
func (k *Kernel) CrashProcess(name string) error {
	ep, err := k.EndpointOf(name)
	if err != nil {
		return err
	}
	e := k.resolve(ep)
	if e == nil {
		return fmt.Errorf("%w: %v", ErrDeadSrcDst, ep)
	}
	k.stats.Crashes++
	return k.m.Engine().Kill(e.pid)
}

// startServer registers and spawns a system-server image.
func (k *Kernel) startServer(img Image) (Endpoint, error) {
	k.RegisterImage(img)
	return k.SpawnImage(img.Name, core.NoACID)
}

// RegisterImage adds a binary image to the boot image registry. Duplicate
// names panic: the image list is fixed at build time.
func (k *Kernel) RegisterImage(img Image) {
	if img.Name == "" || img.Body == nil {
		panic("minix: image needs a name and a body")
	}
	if _, dup := k.images[img.Name]; dup {
		panic(fmt.Sprintf("minix: image %q registered twice", img.Name))
	}
	k.images[img.Name] = img
}

// Stats returns a snapshot of kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Machine returns the underlying board.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// PM returns the process-manager server handle (for experiment inspection).
func (k *Kernel) PM() *PMView { return &PMView{pm: k.pm} }

// EndpointOf resolves a published name from the host side.
func (k *Kernel) EndpointOf(name string) (Endpoint, error) {
	ep, ok := k.names[name]
	if !ok {
		return EndpointNone, fmt.Errorf("%w: %q", ErrNameNotFound, name)
	}
	return ep, nil
}

// ACIDOf reports the access-control identity of a live endpoint.
func (k *Kernel) ACIDOf(ep Endpoint) (core.ACID, error) {
	e := k.resolve(ep)
	if e == nil {
		return core.NoACID, fmt.Errorf("%w: %v", ErrDeadSrcDst, ep)
	}
	return e.acID, nil
}

// Alive reports whether an endpoint currently addresses a live process.
func (k *Kernel) Alive(ep Endpoint) bool { return k.resolve(ep) != nil }

// imageName reads the image name stored in msg at offset off. A registered
// name comes back as the registry's own string, so the lookup copies
// nothing; an unknown name is copied out of the payload.
func (k *Kernel) imageName(msg *Message, off int) string {
	if img, ok := k.images[string(msg.stringBytes(off))]; ok {
		return img.Name
	}
	return msg.GetString(off)
}

// SpawnImage instantiates a registered image with the given access-control
// identity (NoACID spawns an identity-less process). It is the host/boot
// path; running processes go through PM's fork2 instead.
func (k *Kernel) SpawnImage(image string, acid core.ACID) (Endpoint, error) {
	img, ok := k.images[image]
	if !ok {
		return EndpointNone, fmt.Errorf("%w: %q", ErrUnknownImage, image)
	}
	return k.spawn(img, acid)
}

// spawn allocates a slot and starts the image body.
func (k *Kernel) spawn(img Image, acid core.ACID) (Endpoint, error) {
	if k.used == maxSlots {
		return EndpointNone, ErrTableFull
	}
	slot := k.freeLow
	for k.slots[slot] != nil {
		slot++
	}
	ep := makeEndpoint(slot, k.gens[slot])
	entry := &procEntry{
		ep:        ep,
		name:      img.Name,
		acID:      acid,
		acName:    k.policy.IPC.NameOf(acid),
		who:       k.whoOf(img.Name, acid),
		isServer:  img.Server,
		restart:   img.Restart,
		netAccess: img.Net,
	}
	// The device, listener and connection tables are allocated on first
	// write: most processes (every fork-bomb child) never touch them.
	if len(img.Devices) > 0 {
		entry.devs = make(map[machine.DeviceID]bool, len(img.Devices))
		for _, d := range img.Devices {
			entry.devs[d] = true
		}
	}
	body := img.Body
	proc, err := k.m.Engine().Spawn(img.Name, img.Priority, func(ctx *machine.Context) {
		body(&API{ctx: ctx, f: ctx.Frame(), self: ep})
	})
	if err != nil {
		return EndpointNone, fmt.Errorf("minix: spawning %q: %w", img.Name, err)
	}
	entry.pid = proc.PID()
	entry.frame = proc.Frame()
	k.slots[slot] = entry
	k.used++
	k.freeLow = slot + 1
	for int(proc.PID()) >= len(k.byPID) {
		k.byPID = append(k.byPID, nil)
	}
	k.byPID[proc.PID()] = entry
	k.names[img.Name] = ep
	k.stats.Spawns++
	k.m.Trace().Logf("minix", "spawn %s ep=%v acid=%d uid=%d", img.Name, ep, acid, img.UID)
	return ep, nil
}

// whoOf returns the small integer naming the (name, acid) identity,
// issuing the next one on first sight.
func (k *Kernel) whoOf(name string, acid core.ACID) uint32 {
	id := procIdent{name: name, acID: acid}
	w, ok := k.whos[id]
	if !ok {
		w = uint32(len(k.whos))
		k.whos[id] = w
	}
	return w
}

// cell returns the interned edges of src sending msgType to dst, interning
// them the first time the cell is used.
func (k *Kernel) cell(src, dst *procEntry, msgType int32) cellEdges {
	key := cellKey{src: src.who, dst: dst.who, msgType: msgType}
	c, ok := k.cells[key]
	if !ok {
		c = cellEdges{
			use:  k.edges.Intern(src.acName, dst.acName, fmt.Sprintf("mt%d", msgType)),
			span: k.edges.Intern(src.name, dst.name, fmt.Sprintf("sendrec mt%d", msgType)),
		}
		k.cells[key] = c
	}
	return c
}

// resolve maps an endpoint to its live process entry, nil when dead/invalid.
func (k *Kernel) resolve(ep Endpoint) *procEntry {
	if ep == EndpointNone || ep == EndpointAny || ep == EndpointSystem {
		return nil
	}
	slot := ep.Slot()
	if slot >= len(k.slots) {
		return nil
	}
	e := k.slots[slot]
	if e == nil || e.ep != ep {
		return nil
	}
	return e
}

// entryOf maps a trapping PID to its entry; every trapping process was
// spawned by this kernel, so a miss is a kernel bug.
func (k *Kernel) entryOf(pid machine.PID) *procEntry {
	e := k.live(pid)
	if e == nil {
		panic(fmt.Sprintf("minix: trap from unknown pid %d", pid))
	}
	return e
}

// live returns the entry of pid while the process lives, nil otherwise.
func (k *Kernel) live(pid machine.PID) *procEntry {
	if int(pid) >= len(k.byPID) {
		return nil
	}
	return k.byPID[pid]
}

// checkIPC is the access control matrix hook on every user-to-user IPC
// operation; a permitted operation gets its cell's edges back for the
// caller's span. System servers bypass it (they audit their own
// protocols). A kernel with the ACM disabled (the vanilla-MINIX ablation)
// skips the permission check but still records the delivery: runtime
// verification is most interesting exactly where enforcement is absent, and
// the online policy monitor observes the recorded stream on both
// configurations.
func (k *Kernel) checkIPC(src, dst *procEntry, msgType int32) (cellEdges, error) {
	user := !src.isServer && !dst.isServer
	if user && !k.cfg.DisableACM {
		inRange := msgType >= 0 && int64(msgType) <= int64(core.MaxMsgType)
		if !inRange || !k.policy.IPC.Allows(src.acID, dst.acID, core.MsgType(msgType)) {
			return cellEdges{}, k.auditDeny(src, dst, msgType)
		}
	}
	c := k.cell(src, dst, msgType)
	if user {
		// Record the exercised grant for the least-privilege audit
		// (polcheck.AuditMatrix): the usage edge is named like the matrix
		// so the audit can diff cells against usage directly.
		k.m.IPC().Record(c.use)
	}
	return c, nil
}

// auditDeny records one ACM denial in the board trace, counters, and the
// unified security-event stream, and returns the denial error.
func (k *Kernel) auditDeny(src, dst *procEntry, msgType int32) error {
	d := k.denialFor(src, dst, msgType)
	k.stats.IPCDenied++
	k.mDenied.Inc()
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventIPCDenied,
		Mechanism: obs.MechACM,
		Denied:    true,
		Src:       src.name,
		Dst:       dst.name,
		Detail:    d.detail,
	})
	k.m.Trace().Log("minix-acm", d.trace)
	return d.err
}

// denialFor returns the memoised error and text of one ACM denial, building
// them on the first occurrence. An out-of-range type is reported as
// MaxMsgType, the largest type the matrix can express.
func (k *Kernel) denialFor(src, dst *procEntry, msgType int32) *denial {
	key := denialKey{src: src.name, dst: dst.name, srcACID: src.acID, dstACID: dst.acID, msgType: msgType}
	if d, ok := k.denials[key]; ok {
		return d
	}
	t := core.MaxMsgType
	if msgType >= 0 && int64(msgType) <= int64(core.MaxMsgType) {
		t = core.MsgType(msgType)
	}
	d := &denial{
		err:    &core.DeniedError{Src: src.acID, Dst: dst.acID, Type: t},
		detail: fmt.Sprintf("m_type=%d acid=%d->%d", msgType, src.acID, dst.acID),
		trace: fmt.Sprintf("DENY %s(acid=%d) -> %s(acid=%d) m_type=%d",
			src.name, src.acID, dst.name, dst.acID, msgType),
	}
	if k.denials == nil {
		k.denials = make(map[denialKey]*denial)
	}
	k.denials[key] = d
	return d
}

// endSpan closes e's open sendrec span, if any, observing the round-trip
// latency on delivery.
func (k *Kernel) endSpan(e *procEntry, outcome obs.Outcome) {
	if e.span == 0 {
		return
	}
	d, ok := k.tracer.End(e.span, outcome)
	e.span = 0
	if ok && outcome == obs.OutcomeDelivered {
		k.mSendRecNs.Observe(time.Duration(d))
	}
}

// HandleTrap implements machine.TrapHandler: it dispatches on the trap
// number, reading the arguments from and writing the reply into f, the
// caller's frame (the layouts are in syscalls.go).
func (k *Kernel) HandleTrap(pid machine.PID, f *machine.Frame) machine.Disposition {
	self := k.entryOf(pid)
	switch f.Nr {
	case trapSend, trapSendRec:
		return k.doSend(self, Endpoint(f.R[0]), frameMsg(f), f.Nr == trapSendRec)
	case trapReceive:
		return k.doReceive(self, Endpoint(f.R[0]))
	case trapReceiveTimeout:
		d := time.Duration(f.R[1])
		if k.doReceive(self, Endpoint(f.R[0])) == machine.DispositionContinue {
			return machine.DispositionContinue
		}
		// Blocked: arm the timeout. Delivery bumps waitToken, so a reply
		// racing the timer wins and the timer callback becomes a no-op.
		if self.onRecvTimeout == nil {
			k.buildWakers(self)
		}
		self.waitToken++
		k.m.Clock().AfterToken(d, self.onRecvTimeout, self.waitToken)
		return machine.DispositionBlock
	case trapNotify:
		f.Err = k.doNotify(self, Endpoint(f.R[0]))
	case trapSendNB:
		f.Err = k.doSendNB(self, Endpoint(f.R[0]), frameMsg(f))
	case trapSleep:
		if self.onSleep == nil {
			k.buildWakers(self)
		}
		self.phase = phaseSleeping
		self.waitToken++
		k.m.Clock().AfterToken(time.Duration(f.R[0]), self.onSleep, self.waitToken)
		return machine.DispositionBlock
	case trapDevRead:
		dev := machine.DeviceID(f.S0)
		if !self.devs[dev] {
			f.Err = fmt.Errorf("%w: device %q", ErrNoPrivilege, dev)
			break
		}
		k.stats.DevReads++
		v, err := k.m.Bus().Read(dev, uint32(f.R[0]))
		f.R[0], f.Err = uint64(v), err
	case trapDevWrite:
		dev := machine.DeviceID(f.S0)
		if !self.devs[dev] {
			f.Err = fmt.Errorf("%w: device %q", ErrNoPrivilege, dev)
			break
		}
		k.stats.DevWrites++
		f.Err = k.m.Bus().Write(dev, uint32(f.R[0]), uint32(f.R[1]))
	case trapLookup:
		ep, err := k.EndpointOf(f.S0)
		f.R[0], f.Err = uint64(ep), err
	case trapTrace:
		k.m.Trace().Log(f.S0, f.S1)
	case trapNetListen:
		f.Err = k.doNetListen(self, f)
	case trapNetAccept:
		return k.doNetAccept(self, f)
	case trapNetRead:
		return k.doNetRead(self, f)
	case trapNetWrite:
		f.Err = k.doNetWrite(self, f)
	case trapNetClose:
		f.Err = k.doNetClose(self, f)
	case trapGrantCreate:
		f.Err = k.doGrantCreate(self, f)
	case trapGrantRevoke:
		f.Err = k.doGrantRevoke(self, GrantID(f.R[0]))
	case trapSafeCopy:
		f.Err = k.doSafeCopy(self, f)
	case trapExit:
		self.exiting = true
		// Kill unwinds the caller: the error slot is read only if it fails.
		f.Err = k.m.Engine().Kill(pid)
	case trapKSpawn:
		if !self.isServer {
			f.Err = ErrNoPrivilege
			break
		}
		ep, err := k.SpawnImage(f.S0, core.ACID(f.R[0]))
		f.R[0], f.Err = uint64(ep), err
	case trapKKill:
		f.Err = k.doKKill(self, Endpoint(f.R[0]))
	default:
		f.Err = fmt.Errorf("minix: unknown trap %d", f.Nr)
	}
	return machine.DispositionContinue
}

// doKKill is the privileged kernel kill PM issues once it has audited a
// kill request.
func (k *Kernel) doKKill(self *procEntry, target Endpoint) error {
	if !self.isServer {
		k.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventKillDenied,
			Mechanism: obs.MechKernel,
			Denied:    true,
			Src:       self.name,
			Detail:    "kernel kill requires server privilege",
		})
		return ErrNoPrivilege
	}
	victim := k.resolve(target)
	if victim == nil {
		return fmt.Errorf("%w: %v", ErrDeadSrcDst, target)
	}
	k.stats.Kills++
	k.mKills.Inc()
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventKill,
		Mechanism: obs.MechSyscallMask,
		Src:       self.name,
		Dst:       victim.name,
		Detail:    "pm-authorized kill",
	})
	victim.exiting = true // killed by policy decision, not a fault
	return k.m.Engine().Kill(victim.pid)
}

// doSend implements synchronous send and the send half of sendrec. A sender
// that blocks leaves msg in its frame, where the receiver takes it.
func (k *Kernel) doSend(self *procEntry, dst Endpoint, msg Message, sendRec bool) machine.Disposition {
	if sendRec {
		k.mSendRecs.Inc()
	} else {
		k.mSends.Inc()
	}
	f := self.frame
	target := k.resolve(dst)
	if target == nil {
		f.Err = fmt.Errorf("%w: %v", ErrDeadSrcDst, dst)
		return machine.DispositionContinue
	}
	if target == self {
		f.Err = ErrSelfSend
		return machine.DispositionContinue
	}
	cell, err := k.checkIPC(self, target, msg.Type)
	if err != nil {
		if sendRec {
			k.tracer.Emit(k.cell(self, target, msg.Type).span, obs.OutcomeACMDenied)
		}
		f.Err = err
		return machine.DispositionContinue
	}
	drop, delay := k.faultFor(self.name, target.name)
	if drop {
		if sendRec {
			k.tracer.Emit(cell.span, obs.OutcomeAborted)
		}
		f.Err = ErrTimeout
		return machine.DispositionContinue
	}
	msg.Source = self.ep // kernel stamp: spoofing-proof sender identity
	self.wantSendRec = sendRec
	if sendRec {
		// The round-trip span stays open until the reply wakes the caller.
		self.span = k.tracer.Begin(cell.span)
	}
	if delay > 0 {
		return k.delaySend(self, dst, msg, sendRec, delay)
	}

	if target.phase == phaseRecvBlocked && matches(target.recvFrom, self.ep) {
		// Rendezvous: receiver is waiting, deliver immediately.
		k.completeReceive(target, msg)
		if sendRec {
			self.phase = phaseRecvBlocked
			self.recvFrom = dst
			return machine.DispositionBlock
		}
		return machine.DispositionContinue
	}
	// Receiver not ready: queue and block (rendezvous semantics).
	target.senders = append(target.senders, self.pid)
	self.phase = phaseSendBlocked
	return machine.DispositionBlock
}

// delaySend parks a sender whose delivery is being delayed by fault
// injection. The sender blocks as in a normal rendezvous, but joins the
// receiver's sender queue only when the delay elapses, so the message is
// invisible in transit.
func (k *Kernel) delaySend(self *procEntry, dst Endpoint, msg Message, sendRec bool, delay time.Duration) machine.Disposition {
	self.phase = phaseSendBlocked
	self.waitToken++
	token := self.waitToken
	pid := self.pid
	k.m.Clock().After(delay, func() {
		e := k.live(pid)
		if e != self || e.waitToken != token || e.phase != phaseSendBlocked {
			return
		}
		target := k.resolve(dst)
		if target == nil {
			e.phase = phaseIdle
			k.endSpan(e, obs.OutcomeAborted)
			k.wake(e, fmt.Errorf("%w: %v", ErrDeadSrcDst, dst))
			return
		}
		if target.phase == phaseRecvBlocked && matches(target.recvFrom, e.ep) {
			k.completeReceive(target, msg)
			if sendRec {
				e.phase = phaseRecvBlocked
				e.recvFrom = dst
				return
			}
			e.phase = phaseIdle
			k.wake(e, nil)
			return
		}
		target.senders = append(target.senders, pid)
	})
	return machine.DispositionBlock
}

// completeReceive hands msg to a receiver blocked in Receive and wakes it.
func (k *Kernel) completeReceive(receiver *procEntry, msg Message) {
	receiver.phase = phaseIdle
	receiver.waitToken++
	k.stats.IPCDelivered++
	k.mDelivered.Inc()
	k.endSpan(receiver, obs.OutcomeDelivered)
	putMsg(receiver.frame, &msg)
	k.wake(receiver, nil)
}

// doReceive implements Receive(from).
func (k *Kernel) doReceive(self *procEntry, from Endpoint) machine.Disposition {
	k.mReceives.Inc()
	f := self.frame
	// Specific receive from a dead endpoint can never complete.
	if from != EndpointAny && k.resolve(from) == nil && from != EndpointSystem {
		f.Err = fmt.Errorf("%w: %v", ErrDeadSrcDst, from)
		return machine.DispositionContinue
	}
	// Delivery priority: notifications, then the async mailbox, then blocked
	// senders, mirroring MINIX's notify-before-message rule.
	for i, src := range self.notifies {
		if matches(from, src) {
			self.notifies = append(self.notifies[:i], self.notifies[i+1:]...)
			k.stats.IPCDelivered++
			k.mDelivered.Inc()
			putMsg(f, &Message{Source: src, Type: int32(core.MsgAck)})
			return machine.DispositionContinue
		}
	}
	for i := range self.mailbox {
		if msg := &self.mailbox[i]; matches(from, msg.Source) {
			putMsg(f, msg)
			self.mailbox = append(self.mailbox[:i], self.mailbox[i+1:]...)
			k.mMailbox.Add(-1)
			k.stats.IPCDelivered++
			k.mDelivered.Inc()
			return machine.DispositionContinue
		}
	}
	for i, senderPID := range self.senders {
		sender := k.live(senderPID)
		if sender == nil || sender.phase != phaseSendBlocked {
			continue
		}
		if !matches(from, sender.ep) {
			continue
		}
		self.senders = append(self.senders[:i], self.senders[i+1:]...)
		// The sender's message waits in its frame; stamp its source.
		msg := frameMsg(sender.frame)
		msg.Source = sender.ep
		putMsg(f, &msg)
		k.stats.IPCDelivered++
		k.mDelivered.Inc()
		// Complete the sender's operation.
		if sender.wantSendRec {
			sender.phase = phaseRecvBlocked
			sender.recvFrom = self.ep
		} else {
			sender.phase = phaseIdle
			k.wake(sender, nil)
		}
		return machine.DispositionContinue
	}
	// Nothing pending: block.
	self.phase = phaseRecvBlocked
	self.recvFrom = from
	return machine.DispositionBlock
}

// doNotify implements the non-blocking notification primitive. A
// notification carries no payload and is delivered as a type-0
// (ACKNOWLEDGE) message, so the ACM's ack bit governs it.
func (k *Kernel) doNotify(self *procEntry, dst Endpoint) error {
	k.mNotifies.Inc()
	target := k.resolve(dst)
	if target == nil {
		return fmt.Errorf("%w: %v", ErrDeadSrcDst, dst)
	}
	if _, err := k.checkIPC(self, target, int32(core.MsgAck)); err != nil {
		return err
	}
	drop, delay := k.faultFor(self.name, target.name)
	if drop {
		// Notifications are fire-and-forget: a lost one is a silent success.
		return nil
	}
	k.stats.Notifies++
	if delay > 0 {
		src := self.ep
		k.m.Clock().After(delay, func() {
			if tgt := k.resolve(dst); tgt != nil {
				k.queueNotify(tgt, src)
			}
		})
		return nil
	}
	k.queueNotify(target, self.ep)
	return nil
}

// queueNotify delivers or pends a notification from src.
func (k *Kernel) queueNotify(target *procEntry, src Endpoint) {
	if target.phase == phaseRecvBlocked && matches(target.recvFrom, src) {
		k.completeReceive(target, Message{Source: src, Type: int32(core.MsgAck)})
		return
	}
	// Pending notifications are a set: duplicates collapse, like MINIX bits.
	for _, s := range target.notifies {
		if s == src {
			return
		}
	}
	target.notifies = append(target.notifies, src)
}

// doSendNB implements the asynchronous non-blocking send the sensor driver
// uses ("sends the fresh data using nonblocking send").
func (k *Kernel) doSendNB(self *procEntry, dst Endpoint, msg Message) error {
	k.mSendNBs.Inc()
	target := k.resolve(dst)
	if target == nil {
		return fmt.Errorf("%w: %v", ErrDeadSrcDst, dst)
	}
	if target == self {
		return ErrSelfSend
	}
	if _, err := k.checkIPC(self, target, msg.Type); err != nil {
		return err
	}
	drop, delay := k.faultFor(self.name, target.name)
	if drop {
		// Async sends report success; the message is lost in transit.
		return nil
	}
	msg.Source = self.ep
	if delay > 0 {
		k.m.Clock().After(delay, func() {
			tgt := k.resolve(dst)
			if tgt == nil {
				return
			}
			if tgt.phase == phaseRecvBlocked && matches(tgt.recvFrom, msg.Source) {
				k.completeReceive(tgt, msg)
				return
			}
			if len(tgt.mailbox) >= k.cfg.MailboxCap {
				return // lost: no sender left to report to
			}
			tgt.mailbox = append(tgt.mailbox, msg)
			k.mMailbox.Add(1)
			k.stats.AsyncQueued++
		})
		return nil
	}
	if target.phase == phaseRecvBlocked && matches(target.recvFrom, self.ep) {
		k.completeReceive(target, msg)
		return nil
	}
	if len(target.mailbox) >= k.cfg.MailboxCap {
		return ErrMailboxFull
	}
	target.mailbox = append(target.mailbox, msg)
	k.mMailbox.Add(1)
	k.stats.AsyncQueued++
	return nil
}

// deliverSystem queues a kernel-generated message to a server process,
// delivering immediately when it is blocked in a matching receive.
func (k *Kernel) deliverSystem(target *procEntry, msg Message) {
	msg.Source = EndpointSystem
	if target.phase == phaseRecvBlocked && matches(target.recvFrom, EndpointSystem) {
		k.completeReceive(target, msg)
		return
	}
	target.mailbox = append(target.mailbox, msg) // system messages bypass the cap
	k.mMailbox.Add(1)
}

// buildWakers builds e's reusable Sleep and ReceiveTimeout timer callbacks,
// on its first wait.
// Each firing carries the token of the wait that armed it; a token that is
// no longer e's waitToken, or an e no longer in the process table (it died,
// and OnProcExit bumped the token too), makes the firing a no-op, so a
// pending timer of a dead process never wakes whatever reuses its slot.
func (k *Kernel) buildWakers(e *procEntry) {
	e.onSleep = func(token uint64) {
		if k.live(e.pid) != e || e.waitToken != token || e.phase != phaseSleeping {
			return
		}
		e.phase = phaseIdle
		k.wake(e, nil)
	}
	e.onRecvTimeout = func(token uint64) {
		if k.live(e.pid) != e || e.waitToken != token || e.phase != phaseRecvBlocked {
			return
		}
		e.phase = phaseIdle
		e.waitToken++
		k.wake(e, ErrTimeout)
	}
}

// matches implements the Receive source filter.
func matches(filter, src Endpoint) bool {
	return filter == EndpointAny || filter == src
}

// OnProcExit implements machine.TrapHandler: it tears down the dead
// process's kernel state, errors out every peer blocked on it, and reports
// driver crashes to the reincarnation server.
func (k *Kernel) OnProcExit(pid machine.PID, info machine.ExitInfo) {
	e := k.live(pid)
	if e == nil {
		return
	}
	crashed := info.Crashed || (info.Killed && !e.exiting)
	if info.Crashed {
		k.stats.Crashes++
		k.m.Trace().Logf("minix", "CRASH %s ep=%v panic=%v", e.name, e.ep, info.PanicValue)
	} else {
		k.m.Trace().Logf("minix", "exit %s ep=%v", e.name, e.ep)
	}

	// Free the slot; bump the generation so the endpoint goes stale.
	slot := e.ep.Slot()
	k.slots[slot] = nil
	k.gens[slot]++
	k.used--
	if slot < k.freeLow {
		k.freeLow = slot
	}
	k.byPID[pid] = nil
	if k.names[e.name] == e.ep {
		delete(k.names, e.name)
	}
	e.waitToken++ // invalidate timers and net callbacks
	k.endSpan(e, obs.OutcomeAborted)
	k.mMailbox.Add(int64(-len(e.mailbox)))

	// Wake senders queued on the victim.
	for _, senderPID := range e.senders {
		sender := k.live(senderPID)
		if sender == nil || sender.phase != phaseSendBlocked {
			continue
		}
		sender.phase = phaseIdle
		k.endSpan(sender, obs.OutcomeAborted)
		k.wake(sender, fmt.Errorf("%w: %v", ErrDeadSrcDst, e.ep))
	}
	// Wake receivers waiting specifically on the victim, and drop the victim
	// from other processes' sender queues.
	for _, other := range k.slots {
		if other == nil {
			continue
		}
		if other.phase == phaseRecvBlocked && other.recvFrom == e.ep {
			other.phase = phaseIdle
			other.waitToken++
			k.endSpan(other, obs.OutcomeAborted)
			k.wake(other, fmt.Errorf("%w: %v", ErrDeadSrcDst, e.ep))
		}
		for i, senderPID := range other.senders {
			if senderPID == pid {
				other.senders = append(other.senders[:i], other.senders[i+1:]...)
				break
			}
		}
	}

	// Release network resources.
	if k.cfg.Net != nil {
		for _, l := range e.listeners {
			k.cfg.Net.CloseListener(l)
		}
		for _, c := range e.conns {
			k.cfg.Net.BoardClose(c)
		}
	}

	// Report to RS for driver reincarnation.
	if k.rs != nil && e.restart && crashed {
		if rsEntry := k.resolve(k.rs.ep); rsEntry != nil {
			msg := NewMessage(TypeProcExit)
			msg.PutU32(0, uint32(e.ep))
			msg.PutString(8, e.name)
			msg.PutU32(44, uint32(e.acID))
			k.deliverSystem(rsEntry, msg)
		}
	}
}
