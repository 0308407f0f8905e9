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
	// send is the writer's usage edge into the queue, booked when the
	// message lands.
	send obs.EdgeID
}

// devFile is a /dev node fronting a bus device.
type devFile struct {
	dev      machine.DeviceID
	ownerUID int
	ownerGID int
	mode     Mode
}

// fd is one file-descriptor table entry. edges are the opener's IPC
// edges through the queue, interned at mq_open.
type fd struct {
	q        *mqueue
	canRead  bool
	canWrite bool
	nonblock bool
	edges    mqEdges
}

// mqEdges are one process's interned edges through one queue: the usage
// edges the IPC log books (send into the queue, recv out of it) and the
// span edges the tracer records for mq_send and mq_receive.
type mqEdges struct {
	send, recv, mqSend, mqReceive obs.EdgeID
}

// proc is the kernel's process record.
type proc struct {
	// Wait is the process's wait record, with its engine PID.
	machine.Wait
	unixPID int
	name    string
	uid     int
	gid     int

	fds    map[int32]*fd
	nextFD int32

	// span is the open mq_send/mq_receive span while blocked on a queue;
	// recvEdge is the blocked reader's usage edge out of that queue.
	span     obs.SpanID
	recvEdge obs.EdgeID

	// socks is the process's socket table, made on its first listen.
	// Sockets draw their descriptors from nextFD, as message queues do.
	socks *vnet.Sockets

	// frame is the process's trap frame: a blocked trap's reply is written
	// into it before the process is woken.
	frame *machine.Frame

	// waitQ is the queue a timed receive is blocked on.
	waitQ *mqueue

	// lastMQBuf is the payload buffer of the most recent message delivered
	// to this process; it is recycled into the kernel's pool on the next
	// delivery (a received MQMsg's Data is valid until then).
	lastMQBuf []byte
}

// The kernel's queue wait phases, beside the shared sleep and network ones.
const (
	phaseMQRecv = machine.WaitKernel + iota
	phaseMQSend
)

// Image is a loadable binary: body plus credentials.
type Image struct {
	Name     string
	Body     func(api *API)
	UID      int
	GID      int
	Priority int
}

// defaultMaxMsgs bounds a queue's depth when mq_open does not specify one,
// the Linux default.
const defaultMaxMsgs = 10

// Config parameterises the kernel.
type Config struct {
	// Net is the board network stack; nil boards have no network. Unlike the
	// microkernels, any process may use it (Linux DAC does not gate socket
	// creation for unprivileged ports).
	Net *vnet.Stack
	// MaxProcs models RLIMIT_NPROC-style process-count pressure: spawns
	// beyond it fail with ErrAgain. Zero means 1024. Note this is a global
	// resource limit, not a per-subject quota — a fork bomb still crowds
	// out everyone else, which is the paper's point.
	MaxProcs int
}

// Kernel is the monolithic kernel simulator.
type Kernel struct {
	machine.IPCFaults
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

	// waits is the wait layer every blocking trap parks its caller in,
	// and traps the process traps, whose device check is devAccess.
	waits *machine.Waits
	traps machine.ProcTraps

	// bufPool recycles message payload buffers: mq_send copies the payload
	// into a pooled buffer, and the copy is returned to the pool when the
	// receiving process performs its next mq_receive (see deliverMsg).
	bufPool [][]byte

	// refusals books every refusal: the process limit's and DAC's.
	refusals machine.Refusals[refusal]

	// Observability hooks, resolved once at boot.
	reg        *obs.Registry
	tracer     *obs.Tracer
	edges      *obs.Edges
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
	}
	k.waits = machine.NewWaits(m.Engine(), func(pid machine.PID) *machine.Wait {
		if p := k.procs[pid]; p != nil {
			return &p.Wait
		}
		return nil
	}, phaseMQRecv, k.expireReceive, ErrTimeout)
	k.traps = machine.NewProcTraps(m, k.waits, trapProc, k.devAccess)
	k.refusals = machine.NewRefusals(m, k.refusal)
	board := m.Obs()
	board.Events().SetPlatform("linux")
	k.reg = board.Metrics()
	k.tracer = board.Tracer()
	k.edges = board.Edges()
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

// refusal names one distinct refusal by everything its text mentions: op
// is the refused call, src the caller and uid its user, and name the
// device, queue, process or image the call named.
type refusal struct {
	op, src, name string
	uid           int
	// mode and owner are the queue's mode and owner's uid.
	mode  Mode
	owner int
	// pid and sig are a kill's target and signal, reg a device's register.
	pid, sig int
	reg      uint32
}

// refusal builds the Refusal of r, once per distinct refusal: every
// refusal but the process limit's is a DAC denial.
func (k *Kernel) refusal(r refusal) machine.Refusal {
	if r.op == "fork" {
		return machine.Refusal{
			Err: fmt.Errorf("%w: process limit %d reached", ErrAgain, k.cfg.MaxProcs),
			Event: obs.SecurityEvent{Kind: obs.EventForkDenied, Mechanism: obs.MechKernel, Src: r.src,
				Detail: fmt.Sprintf("process limit %d reached", k.cfg.MaxProcs)},
		}
	}
	d := machine.Refusal{Counter: k.mDACDenied,
		Event: obs.SecurityEvent{Kind: obs.EventSyscallDenied, Mechanism: obs.MechDAC, Src: r.src, Dst: r.name}}
	switch r.op {
	case "read", "write":
		d.Err = fmt.Errorf("%w: %s %q", ErrPerm, r.op, r.name)
		d.Event.Detail = fmt.Sprintf("%s /dev/%s reg %d", r.op, r.name, r.reg)
	case "mq_open":
		d.Err = fmt.Errorf("%w: queue %q", ErrPerm, r.name)
		d.Event.Kind = obs.EventIPCDenied
		d.Event.Detail = fmt.Sprintf("mq_open uid=%d mode=%04o", r.uid, r.mode)
		d.Tag, d.Line = "linux-dac", fmt.Sprintf("DENY mq_open %s by %s (uid %d)", r.name, r.src, r.uid)
	case "mq_unlink":
		d.Err = fmt.Errorf("%w: unlink %q", ErrPerm, r.name)
		d.Event.Detail = fmt.Sprintf("mq_unlink uid=%d owner=%d", r.uid, r.owner)
	case "kill":
		d.Err = fmt.Errorf("%w: kill %d", ErrPerm, r.pid)
		d.Event.Kind = obs.EventKillDenied
		d.Event.Detail = fmt.Sprintf("kill pid %d sig %d uid=%d", r.pid, r.sig, r.uid)
		d.Tag, d.Line = "linux-dac", fmt.Sprintf("DENY kill %d by %s (uid %d)", r.pid, r.src, r.uid)
	case "respawn":
		d.Err = fmt.Errorf("%w: respawn %q", ErrPerm, r.name)
		d.Event.Detail = fmt.Sprintf("respawn uid=%d", r.uid)
	}
	return d
}

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
		return 0, k.refusals.Book(refusal{op: "fork", src: img.Name}).Err
	}
	p := &proc{
		name:    img.Name,
		uid:     img.UID,
		gid:     img.GID,
		unixPID: k.nextPID,
		fds:     make(map[int32]*fd),
	}
	k.nextPID++
	body := img.Body
	mp, err := k.m.Engine().Spawn(img.Name, img.Priority, func(ctx *machine.Context) {
		body(&API{SocketAPI: vnet.NewSocketAPI(ctx, trapNetListen), DeviceAPI: machine.NewDeviceAPI(ctx, trapProc), ctx: ctx, f: ctx.Frame()})
	})
	if err != nil {
		return 0, fmt.Errorf("linuxsim: spawning %q: %w", img.Name, err)
	}
	p.PID = mp.PID()
	p.frame = mp.Frame()
	k.procs[p.PID] = p
	k.byUnix[p.unixPID] = p
	k.spawnCounts[img.Name]++
	k.mForks.Inc()
	k.m.Trace().Logf("linux", "spawn %s pid=%d uid=%d", img.Name, p.unixPID, p.uid)
	return p.unixPID, nil
}

// SpawnCount reports how many times an image has been spawned on this boot;
// restarts are spawns beyond the first.
func (k *Kernel) SpawnCount(image string) int { return k.spawnCounts[image] }

// CrashProcess kills a live process by image name (fault injection). On
// vanilla Linux nothing watches for the exit — that absence is the point of
// the chaos comparison.
func (k *Kernel) CrashProcess(name string) error {
	victim, err := k.PIDOf(name)
	if err != nil {
		return err
	}
	p := k.byUnix[victim]
	k.m.Trace().Logf("linux", "FAULT-INJECT kill %s pid=%d", p.name, p.unixPID)
	return k.m.Engine().Kill(p.PID)
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

// Alive reports whether a unix pid is live.
func (k *Kernel) Alive(unixPID int) bool {
	_, ok := k.byUnix[unixPID]
	return ok
}

// PIDOf finds a live process's unix pid by image name. When several live
// processes run the image (a forked web interface), it is the lowest pid,
// the oldest of them, whatever the map order.
func (k *Kernel) PIDOf(name string) (int, error) {
	found := -1
	for unixPID, p := range k.byUnix {
		if p.name == name && (found == -1 || unixPID < found) {
			found = unixPID
		}
	}
	if found == -1 {
		return 0, fmt.Errorf("%w: process %q", ErrNoEnt, name)
	}
	return found, nil
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
