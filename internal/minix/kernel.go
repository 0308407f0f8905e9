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

// mailboxCap bounds each process's asynchronous mailbox.
const mailboxCap = 16

// Config parameterises the kernel.
type Config struct {
	// DisableACM turns off the access control matrix, yielding a vanilla
	// MINIX 3 for ablation experiments. The zero value enforces the ACM.
	DisableACM bool
	// Net is the board's network stack; nil boards have no network.
	Net *vnet.Stack
}

// The kernel's IPC wait phases, beside the shared sleep and network ones.
const (
	phaseSendBlocked = machine.WaitKernel + iota
	phaseRecvBlocked
)

// procEntry is the kernel-side process control block. The paper's ac_id
// addition is the acID field. Small fields sit together so the entry fills
// a 208-byte allocation: a fork bomb keeps thousands of them live.
type procEntry struct {
	// Wait is the process's wait record, with its engine PID.
	machine.Wait
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
	wantSendRec bool
	// exiting marks a process killed by a PM-authorized kill, so
	// OnProcExit does not count the kill as a crash.
	exiting  bool
	recvFrom Endpoint
	senders  []machine.PID
	notifies []Endpoint
	mailbox  []Message

	// span is the open sendrec round-trip span, zero outside a sendrec.
	span obs.SpanID

	// Memory grants, and the socket table, made on the first listen.
	nextGrant GrantID
	grants    map[GrantID]*grant
	socks     *vnet.Sockets
}

// Kernel is the simulated security-enhanced MINIX 3 kernel: the board's
// machine.TrapHandler plus the process table, directory service, ACM
// enforcement, and device/network mediation.
type Kernel struct {
	machine.IPCFaults
	m      *machine.Machine
	policy *core.Policy
	cfg    Config

	images map[string]Image
	// slots and gens are the process table and each slot's generation.
	// Both grow on demand up to maxSlots; a slot's generation starts at 1.
	slots []*procEntry
	gens  []int
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

	// waits is the wait layer every blocking trap parks its caller in,
	// and traps the process traps, whose device check is devAccess.
	waits *machine.Waits
	traps machine.ProcTraps

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

	// refusals books every refusal: the ACM's, the device privilege's,
	// the kernel kill's and PM's.
	refusals machine.Refusals[refusal]
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

// refusal names one distinct refusal by everything its text mentions.
type refusal struct {
	why refusalKind
	// src is the refused process, empty for a PM caller no longer live,
	// and dst the receiver or the device.
	src, dst string
	// srcACID is the sender's or PM caller's identity, dstACID the
	// receiver's.
	srcACID, dstACID core.ACID
	msgType          int32
	// op is the PM call, and err the ledger's refusal: one error value per
	// (subject, call, exhausted), so it compares by identity.
	op  string
	err error
}

// refusalKind says which check refused.
type refusalKind uint8

const (
	refuseACM    refusalKind = iota // the ACM refused src sending msgType to dst
	refuseDevice                    // dst is not among src's image's devices
	refuseKKill                     // src, not a server, asked for a kernel kill
	refuseNet                       // src's image holds no network privilege
	refusePM                        // PM's syscall policy refused op
)

var _ machine.TrapHandler = (*Kernel)(nil)

// Boot installs the kernel on a board and starts the system servers (PM,
// RS). The policy must be sealed; the ACM half is enforced in the kernel on
// every IPC, the syscall half inside PM.
func Boot(m *machine.Machine, policy *core.Policy, cfg Config) (*Kernel, error) {
	if !policy.Sealed() {
		return nil, core.ErrNotSealed
	}
	k := &Kernel{
		m:      m,
		policy: policy,
		cfg:    cfg,
		images: make(map[string]Image),
		names:  make(map[string]Endpoint),
		whos:   make(map[procIdent]uint32),
		cells:  make(map[cellKey]cellEdges),
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
	k.waits = machine.NewWaits(m.Engine(), func(pid machine.PID) *machine.Wait {
		if e := k.live(pid); e != nil {
			return &e.Wait
		}
		return nil
	}, phaseRecvBlocked, nil, ErrTimeout)
	k.traps = machine.NewProcTraps(m, k.waits, trapProc, k.devAccess)
	k.refusals = machine.NewRefusals(m, k.refusal)

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
	return k.m.Engine().Kill(e.PID)
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
	for slot < len(k.slots) && k.slots[slot] != nil {
		slot++
	}
	if slot == len(k.slots) {
		k.growTable()
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
	// The device table is allocated here only for an image with devices,
	// and the socket table on the first listen: most processes (every
	// fork-bomb child) never touch either.
	if len(img.Devices) > 0 {
		entry.devs = make(map[machine.DeviceID]bool, len(img.Devices))
		for _, d := range img.Devices {
			entry.devs[d] = true
		}
	}
	body := img.Body
	proc, err := k.m.Engine().Spawn(img.Name, img.Priority, func(ctx *machine.Context) {
		body(&API{SocketAPI: vnet.NewSocketAPI(ctx, trapNetListen), DeviceAPI: machine.NewDeviceAPI(ctx, trapProc), ctx: ctx, f: ctx.Frame(), self: ep})
	})
	if err != nil {
		return EndpointNone, fmt.Errorf("minix: spawning %q: %w", img.Name, err)
	}
	entry.PID = proc.PID()
	entry.frame = proc.Frame()
	k.slots[slot] = entry
	k.used++
	k.freeLow = slot + 1
	for int(proc.PID()) >= len(k.byPID) {
		k.byPID = append(k.byPID, nil)
	}
	k.byPID[proc.PID()] = entry
	k.names[img.Name] = ep
	k.m.Trace().Logf("minix", "spawn %s ep=%v acid=%d uid=%d", img.Name, ep, acid, img.UID)
	return ep, nil
}

// growTable adds one free slot, at generation 1, to the process table. The
// capacity doubles from 32, capped at maxSlots, so a board that runs a
// dozen processes holds a table for 32 and a fork bomb's fills exactly.
func (k *Kernel) growTable() {
	if len(k.slots) == cap(k.slots) {
		n := min(max(2*cap(k.slots), 32), maxSlots)
		k.slots = append(make([]*procEntry, 0, n), k.slots...)
		k.gens = append(make([]int, 0, n), k.gens...)
	}
	k.slots = append(k.slots, nil)
	k.gens = append(k.gens, 1)
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
			return cellEdges{}, k.refusals.Book(refusal{why: refuseACM, src: src.name, dst: dst.name,
				srcACID: src.acID, dstACID: dst.acID, msgType: msgType}).Err
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

// refusal builds the Refusal of r, once per distinct refusal. An ACM
// denial of an out-of-range type is reported as MaxMsgType, the largest
// type the matrix can express.
func (k *Kernel) refusal(r refusal) machine.Refusal {
	switch r.why {
	case refuseACM:
		t := core.MaxMsgType
		if r.msgType >= 0 && int64(r.msgType) <= int64(core.MaxMsgType) {
			t = core.MsgType(r.msgType)
		}
		return machine.Refusal{
			Err:     &core.DeniedError{Src: r.srcACID, Dst: r.dstACID, Type: t},
			Counter: k.mDenied,
			Event: obs.SecurityEvent{Kind: obs.EventIPCDenied, Mechanism: obs.MechACM, Src: r.src, Dst: r.dst,
				Detail: fmt.Sprintf("m_type=%d acid=%d->%d", r.msgType, r.srcACID, r.dstACID)},
			Tag: "minix-acm",
			Line: fmt.Sprintf("DENY %s(acid=%d) -> %s(acid=%d) m_type=%d",
				r.src, r.srcACID, r.dst, r.dstACID, r.msgType),
		}
	case refuseDevice:
		return machine.Refusal{
			Err: fmt.Errorf("%w: device %q", ErrNoPrivilege, r.dst),
			Event: obs.SecurityEvent{Kind: obs.EventSyscallDenied, Mechanism: obs.MechKernel, Src: r.src, Dst: r.dst,
				Detail: fmt.Sprintf("device %s not in the image's privileges", r.dst)},
		}
	case refuseKKill:
		return machine.Refusal{
			Err: ErrNoPrivilege,
			Event: obs.SecurityEvent{Kind: obs.EventKillDenied, Mechanism: obs.MechKernel, Src: r.src,
				Detail: "kernel kill requires server privilege"},
		}
	case refuseNet:
		return machine.Refusal{
			Err: fmt.Errorf("%w: network access", ErrNoPrivilege),
			Event: obs.SecurityEvent{Kind: obs.EventSyscallDenied, Mechanism: obs.MechKernel, Src: r.src,
				Detail: "network access not in the image's privileges"},
		}
	}
	return pmRefusal(r)
}

// HandleTrap implements machine.TrapHandler: it dispatches on the trap
// number, reading the arguments from and writing the reply into f, the
// caller's frame (the layouts are in syscalls.go).
func (k *Kernel) HandleTrap(pid machine.PID, f *machine.Frame) machine.Disposition {
	if k.traps.Handles(f.Nr) {
		return k.traps.Trap(pid, f)
	}
	self := k.entryOf(pid)
	switch f.Nr {
	case trapSend, trapSendRec:
		return k.doSend(self, Endpoint(f.R[0]), frameMsg(f), f.Nr == trapSendRec)
	case trapReceive:
		return k.doReceive(self, Endpoint(f.R[0]))
	case trapReceiveTimeout:
		if k.doReceive(self, Endpoint(f.R[0])) == machine.DispositionContinue {
			return machine.DispositionContinue
		}
		// Blocked: arm the timeout. A delivery wakes the receiver and ends
		// the wait, so a reply racing the timer wins.
		return k.waits.Timeout(&self.Wait, time.Duration(f.R[1]))
	case trapNotify:
		f.Err = k.doNotify(self, Endpoint(f.R[0]))
	case trapSendNB:
		f.Err = k.doSendNB(self, Endpoint(f.R[0]), frameMsg(f))
	case trapLookup:
		ep, err := k.EndpointOf(f.S0)
		f.R[0], f.Err = uint64(ep), err
	case trapNetListen, trapNetAccept, trapNetRead, trapNetWrite, trapNetClose:
		return k.doNet(self, f)
	case trapGrantCreate:
		f.Err = k.doGrantCreate(self, f)
	case trapGrantRevoke:
		f.Err = k.doGrantRevoke(self, GrantID(f.R[0]))
	case trapSafeCopy:
		f.Err = k.doSafeCopy(self, f)
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

// devAccess is the kernel's device access check: a process reaches only
// the devices its image lists (the per-process device privilege). Each
// refusal books one syscall denial, as the other kernels book theirs.
func (k *Kernel) devAccess(pid machine.PID, f *machine.Frame, write bool) (machine.DeviceID, error) {
	self, dev := k.entryOf(pid), machine.DeviceID(f.S0)
	if !self.devs[dev] {
		return "", k.refusals.Book(refusal{why: refuseDevice, src: self.name, dst: string(dev)}).Err
	}
	return dev, nil
}

// doKKill is the privileged kernel kill PM issues once it has audited a
// kill request.
func (k *Kernel) doKKill(self *procEntry, target Endpoint) error {
	if !self.isServer {
		return k.refusals.Book(refusal{why: refuseKKill, src: self.name}).Err
	}
	victim := k.resolve(target)
	if victim == nil {
		return fmt.Errorf("%w: %v", ErrDeadSrcDst, target)
	}
	k.mKills.Inc()
	k.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventKill,
		Mechanism: obs.MechSyscallMask,
		Src:       self.name,
		Dst:       victim.name,
		Detail:    "pm-authorized kill",
	})
	victim.exiting = true // killed by policy decision, not a fault
	return k.m.Engine().Kill(victim.PID)
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
	drop, delay := k.FaultFor(self.name, target.name)
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

	if target.Phase == phaseRecvBlocked && matches(target.recvFrom, self.ep) {
		// Rendezvous: receiver is waiting, deliver immediately.
		k.completeReceive(target, msg)
		if sendRec {
			self.Phase = phaseRecvBlocked
			self.recvFrom = dst
			return machine.DispositionBlock
		}
		return machine.DispositionContinue
	}
	// Receiver not ready: queue and block (rendezvous semantics).
	target.senders = append(target.senders, self.PID)
	self.Phase = phaseSendBlocked
	return machine.DispositionBlock
}

// delaySend parks a sender whose delivery is being delayed by fault
// injection. The sender blocks as in a normal rendezvous, but joins the
// receiver's sender queue only when the delay elapses, so the message is
// invisible in transit.
func (k *Kernel) delaySend(self *procEntry, dst Endpoint, msg Message, sendRec bool, delay time.Duration) machine.Disposition {
	token := k.waits.Block(&self.Wait, phaseSendBlocked)
	k.m.Clock().After(delay, func() {
		if k.waits.Current(self.PID, token, phaseSendBlocked) == nil {
			return
		}
		target := k.resolve(dst)
		if target == nil {
			k.tracer.Finish(&self.span, obs.OutcomeAborted, k.mSendRecNs)
			k.waits.Wake(&self.Wait, fmt.Errorf("%w: %v", ErrDeadSrcDst, dst))
			return
		}
		if target.Phase == phaseRecvBlocked && matches(target.recvFrom, self.ep) {
			k.completeReceive(target, msg)
			if sendRec {
				self.Phase = phaseRecvBlocked
				self.recvFrom = dst
				return
			}
			k.waits.Wake(&self.Wait, nil)
			return
		}
		target.senders = append(target.senders, self.PID)
	})
	return machine.DispositionBlock
}

// completeReceive hands msg to a receiver blocked in Receive and wakes it.
func (k *Kernel) completeReceive(receiver *procEntry, msg Message) {
	k.mDelivered.Inc()
	k.tracer.Finish(&receiver.span, obs.OutcomeDelivered, k.mSendRecNs)
	putMsg(receiver.frame, &msg)
	k.waits.Wake(&receiver.Wait, nil)
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
			k.mDelivered.Inc()
			return machine.DispositionContinue
		}
	}
	for i, senderPID := range self.senders {
		sender := k.live(senderPID)
		if sender == nil || sender.Phase != phaseSendBlocked {
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
		k.mDelivered.Inc()
		// Complete the sender's operation.
		if sender.wantSendRec {
			sender.Phase = phaseRecvBlocked
			sender.recvFrom = self.ep
		} else {
			k.waits.Wake(&sender.Wait, nil)
		}
		return machine.DispositionContinue
	}
	// Nothing pending: block.
	self.Phase = phaseRecvBlocked
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
	drop, delay := k.FaultFor(self.name, target.name)
	if drop {
		// Notifications are fire-and-forget: a lost one is a silent success.
		return nil
	}
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
	if target.Phase == phaseRecvBlocked && matches(target.recvFrom, src) {
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
	drop, delay := k.FaultFor(self.name, target.name)
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
			if tgt.Phase == phaseRecvBlocked && matches(tgt.recvFrom, msg.Source) {
				k.completeReceive(tgt, msg)
				return
			}
			if len(tgt.mailbox) >= mailboxCap {
				return // lost: no sender left to report to
			}
			tgt.mailbox = append(tgt.mailbox, msg)
			k.mMailbox.Add(1)
		})
		return nil
	}
	if target.Phase == phaseRecvBlocked && matches(target.recvFrom, self.ep) {
		k.completeReceive(target, msg)
		return nil
	}
	if len(target.mailbox) >= mailboxCap {
		return ErrMailboxFull
	}
	target.mailbox = append(target.mailbox, msg)
	k.mMailbox.Add(1)
	return nil
}

// deliverSystem queues a kernel-generated message to a server process,
// delivering immediately when it is blocked in a matching receive.
func (k *Kernel) deliverSystem(target *procEntry, msg Message) {
	msg.Source = EndpointSystem
	if target.Phase == phaseRecvBlocked && matches(target.recvFrom, EndpointSystem) {
		k.completeReceive(target, msg)
		return
	}
	target.mailbox = append(target.mailbox, msg) // system messages bypass the cap
	k.mMailbox.Add(1)
}

// doNet runs a network trap. This is the kernel's network mediation. In the
// paper's scenario only the web interface process touches the network; the
// kernel gates every network trap with a per-process privilege, checked
// before the handle, and the caller's socket table (vnet.Sockets) does the
// rest.
func (k *Kernel) doNet(self *procEntry, f *machine.Frame) machine.Disposition {
	switch {
	case k.cfg.Net == nil:
		f.Err = fmt.Errorf("%w: board has no network", ErrNoPrivilege)
	case !self.netAccess:
		f.Err = k.refusals.Book(refusal{why: refuseNet, src: self.name}).Err
	case f.Nr == trapNetListen:
		if self.socks == nil {
			self.socks = vnet.NewSockets(k.cfg.Net, nil, k.waits, &self.Wait)
		}
		self.socks.Listen(f, vnet.Port(f.R[0]))
	default:
		return self.socks.Trap(f, trapNetListen, ErrBadHandle)
	}
	return machine.DispositionContinue
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
	k.waits.End(&e.Wait)
	k.tracer.Finish(&e.span, obs.OutcomeAborted, k.mSendRecNs)
	k.mMailbox.Add(int64(-len(e.mailbox)))

	// Wake senders queued on the victim.
	for _, senderPID := range e.senders {
		sender := k.live(senderPID)
		if sender == nil || sender.Phase != phaseSendBlocked {
			continue
		}
		k.tracer.Finish(&sender.span, obs.OutcomeAborted, k.mSendRecNs)
		k.waits.Wake(&sender.Wait, fmt.Errorf("%w: %v", ErrDeadSrcDst, e.ep))
	}
	// Wake receivers waiting specifically on the victim, and drop the victim
	// from other processes' sender queues.
	for _, other := range k.slots {
		if other == nil {
			continue
		}
		if other.Phase == phaseRecvBlocked && other.recvFrom == e.ep {
			k.tracer.Finish(&other.span, obs.OutcomeAborted, k.mSendRecNs)
			k.waits.Wake(&other.Wait, fmt.Errorf("%w: %v", ErrDeadSrcDst, e.ep))
		}
		for i, senderPID := range other.senders {
			if senderPID == pid {
				other.senders = append(other.senders[:i], other.senders[i+1:]...)
				break
			}
		}
	}

	e.socks.Release()

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
