// Package linuxsim simulates the paper's comparison platform: a monolithic
// Unix-like kernel (Section IV-C) running the same five-process scenario
// over POSIX message queues.
//
// The simulation keeps exactly the properties the paper's attacks exploit:
//
//   - IPC objects (message queues) live in a kernel namespace guarded only
//     by discretionary access control: owner uid/gid and a permission mode.
//     Any process that passes the DAC check can open any queue for reading
//     or writing — there is no notion of per-pair, per-message-type policy;
//   - messages carry whatever the sender wrote; there is no kernel-stamped
//     sender identity, so a process with write access to a queue can
//     impersonate anyone (the spoofing attack);
//   - credentials are per-process uid/gid, and uid 0 bypasses every DAC
//     check ("these monolithic systems have few techniques to restrain a
//     process with root privilege");
//   - kill(2) is permitted for same-uid targets and unrestricted for root,
//     so a root-compromised web interface can destroy the control process;
//   - fork is unrestricted (no quota surface at all).
//
// Device registers are exposed as device files with owner/mode, mirroring
// /dev nodes.
package linuxsim

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/vnet"
)

// Errors.
var (
	// ErrPerm is EPERM/EACCES: a DAC check failed.
	ErrPerm = errors.New("linuxsim: permission denied")
	// ErrNoEnt is ENOENT: missing queue, device, or process.
	ErrNoEnt = errors.New("linuxsim: no such object")
	// ErrExist is EEXIST: exclusive create of an existing queue.
	ErrExist = errors.New("linuxsim: already exists")
	// ErrBadFD is EBADF: bad descriptor or wrong access mode.
	ErrBadFD = errors.New("linuxsim: bad file descriptor")
	// ErrAgain is EAGAIN: non-blocking operation would block.
	ErrAgain = errors.New("linuxsim: resource temporarily unavailable")
	// ErrUnknownImage reports exec of an unregistered binary.
	ErrUnknownImage = errors.New("linuxsim: unknown process image")
	// ErrTimeout is ETIMEDOUT: a timed receive expired.
	ErrTimeout = errors.New("linuxsim: timed out")
)

// Signals. Only termination signals are modelled.
const (
	SIGTERM = 15
	SIGKILL = 9
)

// Mode is a Unix permission mode (rw bits only; execute is meaningless
// here).
type Mode uint16

// Permission bit helpers.
const (
	ModeUserRead   Mode = 0o400
	ModeUserWrite  Mode = 0o200
	ModeGroupRead  Mode = 0o040
	ModeGroupWrite Mode = 0o020
	ModeOtherRead  Mode = 0o004
	ModeOtherWrite Mode = 0o002
)

// MQMsg is one POSIX message with its priority.
type MQMsg struct {
	Data []byte
	Prio uint32
}

// mqueue is one kernel message-queue object.
type mqueue struct {
	name     string
	ownerUID int
	ownerGID int
	mode     Mode
	maxMsgs  int
	msgs     []MQMsg

	readers []machine.PID // blocked in mq_receive
	writers []blockedWriter

	// depth is the queue's exported depth gauge, labelled by queue name.
	depth *obs.Gauge
}

type blockedWriter struct {
	pid machine.PID
	msg MQMsg
}

// devFile is a /dev node fronting a bus device.
type devFile struct {
	dev      machine.DeviceID
	ownerUID int
	ownerGID int
	mode     Mode
}

// fd is one file-descriptor table entry.
type fd struct {
	q        *mqueue
	canRead  bool
	canWrite bool
	nonblock bool
}

// proc is the kernel's process record.
type proc struct {
	pid     machine.PID
	unixPID int
	name    string
	uid     int
	gid     int

	fds    map[int32]*fd
	nextFD int32

	phase     procPhase
	waitToken uint64

	// span is the open mq_send/mq_receive span while blocked on a queue.
	span obs.SpanID

	listeners map[int32]*vnet.Listener
	conns     map[int32]*vnet.Conn

	// Reply scratch, one per reply type. The engine serialises all kernel
	// work and a blocked process receives at most one wake-up value, so
	// boxing pointers to these per-process values costs no allocation.
	errR    errReply
	msgR    msgReply
	u32R    u32Reply
	fdR     fdReply
	intR    intReply
	handleR handleReply
	bytesR  bytesReply

	// onSleep and onRecvTimeout are the process's timer callbacks, built
	// once at spawn and re-armed for every sleep and mq_timedreceive with
	// the wait's token (machine.Clock.AfterToken). A firing whose token is
	// no longer the process's waitToken belongs to a finished wait, or to a
	// dead process, and does nothing. waitQ is the queue a timed receive is
	// blocked on.
	onSleep       func(token uint64)
	onRecvTimeout func(token uint64)
	waitQ         *mqueue

	// lastMQBuf is the payload buffer of the most recent message delivered
	// to this process; it is recycled into the kernel's pool on the next
	// delivery (a received MQMsg's Data is valid until then).
	lastMQBuf []byte
}

// errOut fills the process's error reply scratch and returns it boxed.
func (p *proc) errOut(err error) any {
	p.errR = errReply{err: err}
	return &p.errR
}

// msgErr fills the process's message reply scratch with an error and
// returns it boxed (no delivery, so no buffer recycling).
func (p *proc) msgErr(err error) any {
	p.msgR = msgReply{err: err}
	return &p.msgR
}

// u32Out fills the process's u32 reply scratch and returns it boxed.
func (p *proc) u32Out(v uint32, err error) any {
	p.u32R = u32Reply{value: v, err: err}
	return &p.u32R
}

// fdOut fills the process's descriptor reply scratch and returns it boxed.
func (p *proc) fdOut(fd int32, err error) any {
	p.fdR = fdReply{fd: fd, err: err}
	return &p.fdR
}

// intOut fills the process's int reply scratch and returns it boxed.
func (p *proc) intOut(v int, err error) any {
	p.intR = intReply{value: v, err: err}
	return &p.intR
}

// handleOut fills the process's network-handle reply scratch and returns it
// boxed.
func (p *proc) handleOut(h int32, err error) any {
	p.handleR = handleReply{handle: h, err: err}
	return &p.handleR
}

// bytesOut fills the process's byte-slice reply scratch and returns it
// boxed.
func (p *proc) bytesOut(data []byte, err error) any {
	p.bytesR = bytesReply{data: data, err: err}
	return &p.bytesR
}

type procPhase int

const (
	phaseIdle procPhase = iota
	phaseMQRecv
	phaseMQSend
	phaseSleeping
	phaseNet
)

// Image is a loadable binary: body plus credentials.
type Image struct {
	Name     string
	Body     func(api *API)
	UID      int
	GID      int
	Priority int
}

// Config parameterises the kernel.
type Config struct {
	// Net is the board network stack; nil boards have no network. Unlike the
	// microkernels, any process may use it (Linux DAC does not gate socket
	// creation for unprivileged ports).
	Net *vnet.Stack
	// DefaultMaxMsgs bounds queue depth when mq_open does not specify;
	// zero means 10, the Linux default.
	DefaultMaxMsgs int
	// MaxProcs models RLIMIT_NPROC-style process-count pressure: spawns
	// beyond it fail with ErrAgain. Zero means 1024. Note this is a global
	// resource limit, not a per-subject quota — a fork bomb still crowds
	// out everyone else, which is the paper's point.
	MaxProcs int
}

// Stats counts kernel events.
type Stats struct {
	MQSends    int64
	MQReceives int64
	DACDenied  int64
	Kills      int64
	Forks      int64
}

// Kernel is the monolithic kernel simulator.
type Kernel struct {
	m   *machine.Machine
	cfg Config

	images  map[string]Image
	procs   map[machine.PID]*proc
	byUnix  map[int]*proc
	mqs     map[string]*mqueue
	devs    map[machine.DeviceID]*devFile
	nextPID int

	// spawnCounts tallies spawns per image name, so supervision layers can
	// report restarts (spawns beyond the first).
	spawnCounts map[string]int

	// ipcFault, when set, is consulted on every mq_send with the sender's
	// process name and the queue name; it may drop the message or delay its
	// delivery (fault injection).
	ipcFault func(src, queue string) (drop bool, delay time.Duration)

	stats Stats

	// bufPool recycles message payload buffers: mq_send copies the payload
	// into a pooled buffer, and the copy is returned to the pool when the
	// receiving process performs its next mq_receive (see deliverMsg).
	bufPool [][]byte

	// limitDetail and limitErr are the process-limit denial's event detail
	// and error, built once at boot: a fork bomb hits the limit on every
	// attempt, and the text depends only on MaxProcs.
	limitDetail string
	limitErr    error

	// denials memoises the event detail, trace line and error of each
	// distinct mq_open and kill denial, the two an attacker loops on: the
	// text depends only on the key.
	denials map[denialKey]*denial

	// Observability hooks, resolved once at boot.
	reg        *obs.Registry
	tracer     *obs.Tracer
	events     *obs.EventLog
	mSendsC    *obs.Counter
	mRecvsC    *obs.Counter
	mDACDenied *obs.Counter
	mKills     *obs.Counter
	mForks     *obs.Counter
	mMQWaitNs  *obs.Histogram
}

var _ machine.TrapHandler = (*Kernel)(nil)

// Boot installs the kernel on a board.
func Boot(m *machine.Machine, cfg Config) *Kernel {
	if cfg.DefaultMaxMsgs == 0 {
		cfg.DefaultMaxMsgs = 10
	}
	if cfg.MaxProcs == 0 {
		cfg.MaxProcs = 1024
	}
	k := &Kernel{
		m:           m,
		cfg:         cfg,
		images:      make(map[string]Image),
		procs:       make(map[machine.PID]*proc),
		byUnix:      make(map[int]*proc),
		mqs:         make(map[string]*mqueue),
		devs:        make(map[machine.DeviceID]*devFile),
		spawnCounts: make(map[string]int),
		nextPID:     100,
		limitDetail: fmt.Sprintf("process limit %d reached", cfg.MaxProcs),
		limitErr:    fmt.Errorf("%w: process limit %d reached", ErrAgain, cfg.MaxProcs),
	}
	board := m.Obs()
	board.Events().SetPlatform("linux")
	k.reg = board.Metrics()
	k.tracer = board.Tracer()
	k.events = board.Events()
	k.mSendsC = k.reg.Counter("linux_mq_send_total")
	k.mRecvsC = k.reg.Counter("linux_mq_receive_total")
	k.mDACDenied = k.reg.Counter("linux_dac_denied_total")
	k.mKills = k.reg.Counter("linux_kills_total")
	k.mForks = k.reg.Counter("linux_forks_total")
	k.mMQWaitNs = k.reg.Histogram("linux_mq_wait_ns", nil)
	m.Engine().SetHandler(k)
	return k
}

// denialKey identifies one distinct mq_open or kill denial by everything
// its text mentions.
type denialKey struct {
	op, src, queue string
	uid            int
	mode           Mode
	pid, sig       int
}

// denial is the memoised text of one distinct denial.
type denial struct {
	detail, trace string
	err           error
}

// denialFor returns the memoised text of one denial, building it with build
// on the first occurrence.
func (k *Kernel) denialFor(key denialKey, build func() denial) *denial {
	if d, ok := k.denials[key]; ok {
		return d
	}
	d := build()
	if k.denials == nil {
		k.denials = make(map[denialKey]*denial)
	}
	k.denials[key] = &d
	return &d
}

// dacDeny books one DAC denial on the counters and the security-event
// stream.
func (k *Kernel) dacDeny(kind obs.EventKind, src, dst, detail string) {
	k.stats.DACDenied++
	k.mDACDenied.Inc()
	k.events.Emit(obs.SecurityEvent{
		Kind:      kind,
		Mechanism: obs.MechDAC,
		Denied:    true,
		Src:       src,
		Dst:       dst,
		Detail:    detail,
	})
}

// endSpan closes p's open queue span, observing the wait on delivery.
func (k *Kernel) endSpan(p *proc, outcome obs.Outcome) {
	if p.span == 0 {
		return
	}
	s, ok := k.tracer.End(p.span, outcome)
	p.span = 0
	if ok && outcome == obs.OutcomeDelivered {
		k.mMQWaitNs.Observe(time.Duration(s.Duration()))
	}
}

// Stats returns a snapshot of kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Machine returns the underlying board.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// RegisterImage adds a binary to the image registry.
func (k *Kernel) RegisterImage(img Image) {
	if img.Name == "" || img.Body == nil {
		panic("linuxsim: image needs a name and a body")
	}
	if _, dup := k.images[img.Name]; dup {
		panic(fmt.Sprintf("linuxsim: image %q registered twice", img.Name))
	}
	k.images[img.Name] = img
}

// RegisterDeviceFile creates a /dev node for a bus device.
func (k *Kernel) RegisterDeviceFile(dev machine.DeviceID, ownerUID, ownerGID int, mode Mode) {
	k.devs[dev] = &devFile{dev: dev, ownerUID: ownerUID, ownerGID: ownerGID, mode: mode}
}

// SpawnImage starts a registered image (the boot/loader path).
func (k *Kernel) SpawnImage(image string) (int, error) {
	img, ok := k.images[image]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownImage, image)
	}
	return k.spawn(img)
}

func (k *Kernel) spawn(img Image) (int, error) {
	if len(k.procs) >= k.cfg.MaxProcs {
		k.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventForkDenied,
			Mechanism: obs.MechKernel,
			Denied:    true,
			Src:       img.Name,
			Detail:    k.limitDetail,
		})
		return 0, k.limitErr
	}
	p := &proc{
		name:      img.Name,
		uid:       img.UID,
		gid:       img.GID,
		unixPID:   k.nextPID,
		fds:       make(map[int32]*fd),
		listeners: make(map[int32]*vnet.Listener),
		conns:     make(map[int32]*vnet.Conn),
	}
	k.buildWakers(p)
	k.nextPID++
	body := img.Body
	mp, err := k.m.Engine().Spawn(img.Name, img.Priority, func(ctx *machine.Context) {
		body(&API{ctx: ctx})
	})
	if err != nil {
		return 0, fmt.Errorf("linuxsim: spawning %q: %w", img.Name, err)
	}
	p.pid = mp.PID()
	k.procs[p.pid] = p
	k.byUnix[p.unixPID] = p
	k.spawnCounts[img.Name]++
	k.stats.Forks++
	k.mForks.Inc()
	k.m.Trace().Logf("linux", "spawn %s pid=%d uid=%d", img.Name, p.unixPID, p.uid)
	return p.unixPID, nil
}

// SpawnCount reports how many times an image has been spawned on this boot;
// restarts are spawns beyond the first.
func (k *Kernel) SpawnCount(image string) int { return k.spawnCounts[image] }

// SetIPCFault installs (or, with nil, removes) the mq_send fault filter.
func (k *Kernel) SetIPCFault(fn func(src, queue string) (drop bool, delay time.Duration)) {
	k.ipcFault = fn
}

// faultFor consults the fault filter.
func (k *Kernel) faultFor(src, queue string) (bool, time.Duration) {
	if k.ipcFault == nil {
		return false, 0
	}
	return k.ipcFault(src, queue)
}

// CrashProcess kills a live process by image name (fault injection). On
// vanilla Linux nothing watches for the exit — that absence is the point of
// the chaos comparison.
func (k *Kernel) CrashProcess(name string) error {
	victim := -1
	for unixPID, p := range k.byUnix {
		if p.name == name && (victim == -1 || unixPID < victim) {
			victim = unixPID
		}
	}
	if victim == -1 {
		return fmt.Errorf("%w: process %q", ErrNoEnt, name)
	}
	p := k.byUnix[victim]
	k.m.Trace().Logf("linux", "FAULT-INJECT kill %s pid=%d", p.name, p.unixPID)
	return k.m.Engine().Kill(p.pid)
}

// GrantRoot elevates a process to uid 0, modelling the paper's assumed
// privilege-escalation exploit ("we also assume the web interface process
// has root privilege gained through a privilege escalation exploit"). The
// harness calls it between run slices.
func (k *Kernel) GrantRoot(unixPID int) error {
	p, ok := k.byUnix[unixPID]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNoEnt, unixPID)
	}
	k.m.Trace().Logf("linux", "privilege escalation: %s (pid %d) is now root", p.name, p.unixPID)
	p.uid = 0
	p.gid = 0
	return nil
}

// UIDOf reports a process's current uid.
func (k *Kernel) UIDOf(unixPID int) (int, error) {
	p, ok := k.byUnix[unixPID]
	if !ok {
		return 0, fmt.Errorf("%w: pid %d", ErrNoEnt, unixPID)
	}
	return p.uid, nil
}

// Alive reports whether a unix pid is live.
func (k *Kernel) Alive(unixPID int) bool {
	_, ok := k.byUnix[unixPID]
	return ok
}

// PIDOf finds a live process's unix pid by image name.
func (k *Kernel) PIDOf(name string) (int, error) {
	for _, p := range k.procs {
		if p.name == name {
			return p.unixPID, nil
		}
	}
	return 0, fmt.Errorf("%w: process %q", ErrNoEnt, name)
}

// Queue inspection for experiments.

// QueueDepth reports the number of queued messages, or an error if the
// queue does not exist.
func (k *Kernel) QueueDepth(name string) (int, error) {
	q, ok := k.mqs[name]
	if !ok {
		return 0, fmt.Errorf("%w: queue %q", ErrNoEnt, name)
	}
	return len(q.msgs), nil
}

// Allowed exposes the kernel's DAC predicate so the static policy analyzer
// (internal/polcheck) answers permission questions with exactly the code the
// kernel runs, rather than a reimplementation that could drift.
func Allowed(uid, gid int, ownerUID, ownerGID int, mode Mode, wantRead, wantWrite bool) bool {
	return allowed(uid, gid, ownerUID, ownerGID, mode, wantRead, wantWrite)
}

// allowed implements the DAC check: root bypasses everything; otherwise the
// owner, group, and other bit classes apply in order.
func allowed(uid, gid int, ownerUID, ownerGID int, mode Mode, wantRead, wantWrite bool) bool {
	if uid == 0 {
		return true
	}
	var readBit, writeBit Mode
	switch {
	case uid == ownerUID:
		readBit, writeBit = ModeUserRead, ModeUserWrite
	case gid == ownerGID:
		readBit, writeBit = ModeGroupRead, ModeGroupWrite
	default:
		readBit, writeBit = ModeOtherRead, ModeOtherWrite
	}
	if wantRead && mode&readBit == 0 {
		return false
	}
	if wantWrite && mode&writeBit == 0 {
		return false
	}
	return true
}

func (k *Kernel) procOf(pid machine.PID) *proc {
	p, ok := k.procs[pid]
	if !ok {
		panic(fmt.Sprintf("linuxsim: trap from unknown pid %d", pid))
	}
	return p
}
