// Package building is the multi-room fleet simulation: N controller boards
// (any mix of platforms, one per room) joined by an inter-board BAS bus
// (vnet.Bus), supervised by a head-end BMS that speaks BACnet to every room.
// One virtual clock spans the whole building: boards advance in lockstep
// rounds, stepping in parallel worker goroutines between bus-delivery
// barriers, so a 64-room run is byte-deterministic at any worker count.
package building

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/faultinject"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/polcheck/monitor"
	"mkbas/internal/vnet"
)

// Config describes a building.
type Config struct {
	// Rooms is the number of rooms (one board each); must be positive.
	Rooms int
	// Mix assigns platforms round-robin: room i runs Mix[i%len(Mix)].
	// Empty means every room runs PlatformMinix.
	Mix []bas.Platform
	// Secure marks which rooms sit behind the secure proxy (indexed by
	// room); nil means every room speaks the legacy protocol.
	Secure []bool
	// Scenario is the per-room scenario base; the zero value means
	// bas.DefaultScenario(). Room i runs with Seed = Scenario.Seed + i, so
	// rooms have independent sensor noise but the building stays
	// reproducible.
	Scenario bas.ScenarioConfig
	// Recovery enables the optional per-platform recovery machinery in every
	// room (see bas.DeployOptions.Recovery).
	Recovery bool
	// Slice is the lockstep round length; default 1s.
	Slice time.Duration
	// Workers bounds how many boards step concurrently within a round;
	// <= 0 means 1. The report is byte-identical at any value — workers only
	// trade wall-clock time.
	Workers int
	// HeadEnd parameterises the supervisory BMS.
	HeadEnd HeadEndConfig
	// Faults arms a builtin fault-injection plan (by name) on selected rooms.
	Faults map[int]string
	// BusFaults arms a bus-level fault plan (by name, from the builtin
	// registry): link partitions, frame drops, delays, duplication, and the
	// primary head-end crash. Verdicts are applied at the bus flush barrier
	// from virtual time and frame age only, so a faulted run stays
	// byte-identical at any worker count.
	BusFaults string
	// Standby attaches a standby head-end on its own bus node
	// ("bms-standby", added after the primary so room i stays node i). The
	// standby watches the primary's poll traffic through a bus tap and takes
	// over after HeadEnd.FailoverRounds rounds of silence.
	Standby bool
	// TenantAPI attaches the building-scale tenant API tier: a gateway
	// fronting the whole fleet, driven with a deterministic per-round batch
	// of occupant/manager/vendor requests at the round barrier. Authorized
	// setpoint writes land through the target room's real web interface; the
	// tier's counters, latency histograms, and denial events merge into the
	// building report.
	TenantAPI bool
	// Monitor attaches the online policy monitor to every room's board
	// (bas.DeployOptions.Monitor) and installs the bus dial guard: every
	// cross-board dial is checked against the building's certified dial set
	// (only the head-end BMS dials room gateways, on the BACnet port).
	// Uncertified dials raise policy-drift events on the offending board but
	// are still delivered — observe, don't enforce.
	Monitor bool
	// Demote upgrades the monitor to enforcement: the first uncertified dial
	// from a room demotes that room's web-interface subject to the untrusted
	// origin, and every uncertified dial is refused at the bus barrier (the
	// dialer sees a refused connection, exactly as if no listener existed).
	// Demote implies Monitor.
	Demote bool
	// Profiler attaches the host-side performance profiler: rounds, board
	// steps, head-end polling, and bus flushes book their wall-clock cost
	// into named phases, and each worker goroutine keeps busy/idle accounts
	// (WorkerStats). nil profiles nothing, including the busy/idle accounts
	// — their two time.Now calls per board step are measurable on the bench
	// hot path, so unprofiled runs skip them and WorkerStats/StepWallNs
	// read zero. Never marshalled.
	Profiler *perf.Profiler `json:"-"`
}

// RoomKey derives room i's secure-proxy device key. Deterministic on
// purpose: building experiments must replay bit-for-bit.
func RoomKey(i int) []byte {
	return []byte(fmt.Sprintf("bldg-key-%04d", i))
}

// Room is one deployed room: a full testbed and platform deployment attached
// to the bus.
type Room struct {
	Index    int
	Platform bas.Platform
	Secure   bool
	Key      []byte // nil for legacy rooms
	DeviceID uint32
	Node     vnet.NodeID

	Testbed  *bas.Testbed
	Dep      bas.Deployment
	Injector *faultinject.Injector
	Plan     string

	// label is the room's timeline-slice name, precomputed so the worker
	// hot loop never formats.
	label string
}

// Building is the assembled fleet.
type Building struct {
	cfg   Config
	slice time.Duration

	Bus     *vnet.Bus
	Rooms   []*Room
	Head    *HeadEnd
	Standby *HeadEnd // nil unless Config.Standby

	// BusInj is the armed bus-level fault campaign (nil without BusFaults).
	BusInj *faultinject.BusInjector

	headNode      vnet.NodeID
	standbyNode   vnet.NodeID
	round         int
	elapsed       time.Duration
	workers       int
	supWindow     time.Duration
	failoverRound int
	failovers     int

	// tenant is the attached building-scale API tier (nil without
	// Config.TenantAPI); touched only on the coordinator goroutine.
	tenant *tenantTier

	// Bus-monitor state, touched only on the coordinator goroutine (the dial
	// guard runs at the flush barrier with every board engine parked).
	busDrifts  []int64 // uncertified dials observed, by originating room
	busRefused []int64 // uncertified dials refused under Demote, by room
	demoted    []bool  // room's web subject has been demoted

	// Round dispatch: Step wakes every worker once on wake, and the workers
	// claim boards through claim, an index into Rooms, until it passes the
	// end; wg is the round barrier.
	target machine.Time
	wake   chan struct{}
	claim  atomic.Int64
	wg     sync.WaitGroup
	closed bool

	// Host-side profiling. The phases are nil (discarding) without a
	// profiler; the per-worker busy/jobs counters always run. stepWallNs
	// accumulates the coordinator's board-stepping window (dispatch to
	// barrier) per round; every worker busy interval nests strictly inside
	// that window, which is what makes busy+idle == stepWall an exact
	// invariant rather than a racy approximation.
	prof       *perf.Profiler
	phRound    *perf.Phase
	phBoard    *perf.Phase
	phHead     *perf.Phase
	stepWallNs int64
	wstats     []workerStat
}

// workerStat is one worker goroutine's host-time account.
type workerStat struct {
	busyNs int64 // atomic: summed board-step time on this worker
	jobs   int64 // atomic: board steps executed on this worker
	track  *perf.Track
	_      [4]int64 // pad to a cache line so workers don't false-share
}

// WorkerStats is one worker's exported busy/idle account, relative to the
// coordinator's cumulative board-stepping wall-clock (StepWallNs).
type WorkerStats struct {
	Worker int   `json:"worker"`
	Jobs   int64 `json:"jobs"`
	BusyNs int64 `json:"busy_ns"`
	IdleNs int64 `json:"idle_ns"`
}

// New deploys the building: every room boots its platform with the BACnet
// gateway enabled, joins the bus, and the head-end attaches last (so room i
// is always bus node i — the invariant attack code leans on).
func New(cfg Config) (*Building, error) {
	if cfg.Rooms <= 0 {
		return nil, fmt.Errorf("building: need at least one room, got %d", cfg.Rooms)
	}
	scenario := cfg.Scenario
	if scenario.SamplePeriod == 0 {
		seed := scenario.Seed
		scenario = bas.DefaultScenario()
		if seed != 0 {
			scenario.Seed = seed
		}
	}
	slice := cfg.Slice
	if slice <= 0 {
		slice = time.Second
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > cfg.Rooms {
		workers = cfg.Rooms
	}

	b := &Building{
		cfg:     cfg,
		slice:   slice,
		Bus:     vnet.NewBus(),
		workers: workers,
		wake:    make(chan struct{}),
		prof:    cfg.Profiler,
		phRound: cfg.Profiler.HotPhase("building.round"),
		phBoard: cfg.Profiler.HotPhase("building.board_step"),
		phHead:  cfg.Profiler.HotPhase("building.headend"),
		wstats:  make([]workerStat, workers),
	}
	b.Bus.Instrument(cfg.Profiler)
	cfg.Profiler.SetGauge("building.workers", int64(workers))
	b.failoverRound = -1
	// Every room's gateway runs the supervisory watchdog: three missed poll
	// periods of silence and the room degrades to its last-committed
	// setpoint (see bas.Supervision).
	b.supWindow = 3 * cfg.HeadEnd.withDefaults().PollPeriod
	for i := 0; i < cfg.Rooms; i++ {
		room, err := b.deployRoom(i, scenario)
		if err != nil {
			b.Close()
			return nil, err
		}
		b.Rooms = append(b.Rooms, room)
	}
	b.headNode = b.Bus.AddNode("bms", nil)
	b.Head = newHeadEnd(b.Bus, b.headNode, b.Rooms, scenario.Controller.Setpoint, slice, cfg.HeadEnd)
	b.Head.onRoomOK = b.noteRoomOK
	b.Head.onQuarantine = b.noteQuarantine
	if cfg.Standby {
		b.standbyNode = b.Bus.AddNode("bms-standby", nil)
		b.Standby = newStandbyHeadEnd(b.Bus, b.standbyNode, b.headNode, b.Rooms, scenario.Controller.Setpoint, slice, cfg.HeadEnd)
		b.Standby.onRoomOK = b.noteRoomOK
		b.Standby.onQuarantine = b.noteQuarantine
		b.Standby.onFailover = b.noteFailover
		b.Bus.AddTap(func(f vnet.TapFrame) { b.Standby.noteTap(f.From) })
	}
	if cfg.BusFaults != "" {
		plan, err := faultinject.Lookup(cfg.BusFaults)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("building: bus fault plan: %w", err)
		}
		nodes := map[string]int{"bms": int(b.headNode)}
		if cfg.Standby {
			nodes["bms-standby"] = int(b.standbyNode)
		}
		for _, room := range b.Rooms {
			nodes[room.label] = room.Index
		}
		inj, err := faultinject.NewBusInjector(plan, cfg.Rooms, func(name string) (int, bool) {
			id, ok := nodes[name]
			return id, ok
		}, slice)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("building: arming bus faults: %w", err)
		}
		b.BusInj = inj
		b.Bus.SetFaultHook(func(from, to vnet.NodeID, port vnet.Port, age int) vnet.BusFault {
			v := inj.Verdict(int(from), int(to), age)
			return vnet.BusFault{Drop: v.Drop, Hold: v.Hold, Dup: v.Dup}
		})
	}
	if cfg.TenantAPI {
		b.attachTenant()
	}
	if cfg.Monitor || cfg.Demote {
		b.busDrifts = make([]int64, cfg.Rooms)
		b.busRefused = make([]int64, cfg.Rooms)
		b.demoted = make([]bool, cfg.Rooms)
		b.Bus.SetDialGuard(b.guardDial)
	}

	for w := 0; w < workers; w++ {
		st := &b.wstats[w]
		if cfg.Profiler.TimelineEnabled() {
			st.track = cfg.Profiler.Track(fmt.Sprintf("building-worker-%02d", w))
		}
		go func() {
			for range b.wake {
				b.stepClaimed(st)
				b.wg.Done()
			}
		}()
	}
	return b, nil
}

// stepClaimed runs one worker's share of a round: it claims boards from the
// shared index and steps each to the round deadline until every room has
// been claimed. Boards are independent within a round, so which worker
// claims which board cannot reach the report.
func (b *Building) stepClaimed(st *workerStat) {
	for {
		i := int(b.claim.Add(1) - 1)
		if i >= len(b.Rooms) {
			return
		}
		var label string
		if st.track != nil {
			label = b.Rooms[i].label
		}
		sc := b.phBoard.BeginOn(st.track, label)
		if b.prof != nil {
			start := time.Now()
			b.Rooms[i].Dep.Machine().RunUntil(b.target)
			atomic.AddInt64(&st.busyNs, int64(time.Since(start)))
		} else {
			b.Rooms[i].Dep.Machine().RunUntil(b.target)
		}
		atomic.AddInt64(&st.jobs, 1)
		sc.End()
	}
}

// StepWallNs is the cumulative host wall-clock the coordinator spent in the
// board-stepping window (worker wake to barrier) across all rounds so far.
func (b *Building) StepWallNs() int64 { return atomic.LoadInt64(&b.stepWallNs) }

// WorkerStats exports each worker's busy/idle account. Idle is defined
// against the coordinator's stepping window: IdleNs = StepWallNs - BusyNs,
// so for every worker BusyNs + IdleNs == StepWallNs exactly (busy intervals
// nest inside the window). Call between rounds (the coordinator's context),
// not while a Step is in flight.
func (b *Building) WorkerStats() []WorkerStats {
	wall := atomic.LoadInt64(&b.stepWallNs)
	out := make([]WorkerStats, len(b.wstats))
	for w := range b.wstats {
		busy := atomic.LoadInt64(&b.wstats[w].busyNs)
		out[w] = WorkerStats{
			Worker: w,
			Jobs:   atomic.LoadInt64(&b.wstats[w].jobs),
			BusyNs: busy,
			IdleNs: wall - busy,
		}
	}
	return out
}

func (b *Building) deployRoom(i int, scenario bas.ScenarioConfig) (*Room, error) {
	sc := scenario
	sc.Seed = scenario.Seed + int64(i)
	platform := bas.PlatformMinix
	if len(b.cfg.Mix) > 0 {
		platform = b.cfg.Mix[i%len(b.cfg.Mix)]
	}
	secure := i < len(b.cfg.Secure) && b.cfg.Secure[i]
	var key []byte
	if secure {
		key = RoomKey(i)
	}
	tb := bas.NewTestbed(sc)
	dep, err := bas.Deploy(platform, tb, sc, bas.DeployOptions{
		Recovery: b.cfg.Recovery,
		Monitor:  b.cfg.Monitor || b.cfg.Demote,
		BACnet: bas.BACnetOptions{
			Enabled: true, Key: key, DeviceID: uint32(i + 1),
			SupervisionWindow: b.supWindow,
		},
		Profiler: b.cfg.Profiler,
	})
	if err != nil {
		tb.Machine.Shutdown()
		return nil, fmt.Errorf("building: room %d (%s): %w", i, platform, err)
	}
	room := &Room{
		Index:    i,
		Platform: platform,
		Secure:   secure,
		Key:      key,
		DeviceID: uint32(i + 1),
		Testbed:  tb,
		Dep:      dep,
		label:    fmt.Sprintf("room%02d", i),
	}
	room.Node = b.Bus.AddNode(fmt.Sprintf("room%02d", i), tb.Net)
	if room.Node != vnet.NodeID(i) {
		panic("building: room/node numbering out of sync")
	}
	if name, ok := b.cfg.Faults[i]; ok && name != "" {
		plan, err := faultinject.Lookup(name)
		if err != nil {
			tb.Machine.Shutdown()
			return nil, fmt.Errorf("building: room %d fault plan: %w", i, err)
		}
		inj, err := dep.ArmFaults(plan)
		if err != nil {
			tb.Machine.Shutdown()
			return nil, fmt.Errorf("building: room %d arming faults: %w", i, err)
		}
		room.Injector = inj
		room.Plan = name
	}
	return room, nil
}

// guardDial is the building's bus admission policy (vnet.Bus.SetDialGuard).
// The certified dial set follows from the deployment itself: the only
// cross-board connections the building establishes are the head-end BMS
// dialing room gateways on the BACnet port. Anything else — in practice a
// room's board dialing a sibling — is outside the verified inter-board
// access graph. The guard runs at the flush barrier with every board engine
// parked, so the drift event lands on the offending board's log stamped at
// the round deadline: within one round of the dial, deterministically.
func (b *Building) guardDial(from, to vnet.NodeID, port vnet.Port) bool {
	if from == b.headNode && port == bas.BACnetPort {
		return true
	}
	room := int(from)
	if room < 0 || room >= len(b.Rooms) {
		// Unknown originator (no board to attribute to): refuse only under
		// enforcement.
		return !b.cfg.Demote
	}
	b.busDrifts[room]++
	events := b.Rooms[room].Testbed.Machine.Obs().Events()
	events.Emit(obs.SecurityEvent{
		Kind:      obs.EventPolicyDrift,
		Mechanism: obs.MechPolicyMonitor,
		Denied:    b.cfg.Demote,
		Src:       b.Bus.NodeName(from),
		Dst:       b.Bus.NodeName(to),
		Detail:    fmt.Sprintf("uncertified bus dial on port %d", port),
	})
	if !b.cfg.Demote {
		return true
	}
	if !b.demoted[room] {
		b.demoted[room] = true
		// The uncertified dial is the compromise verdict: demote the room's
		// web-origin subject, so its in-graph traffic turns into origin drift
		// on the board monitor from here on.
		if pm := b.Rooms[room].Dep.PolicyMonitor(); pm != nil {
			pm.Demote(bas.NameWebInterface, monitor.OriginUntrusted)
		}
	}
	b.busRefused[room]++
	return false
}

// BusDrifts reports how many uncertified bus dials originated from room i
// (zero when the monitor is off).
func (b *Building) BusDrifts(i int) int64 {
	if i < 0 || i >= len(b.busDrifts) {
		return 0
	}
	return b.busDrifts[i]
}

// BusRefused reports how many of room i's uncertified dials were refused
// under Demote.
func (b *Building) BusRefused(i int) int64 {
	if i < 0 || i >= len(b.busRefused) {
		return 0
	}
	return b.busRefused[i]
}

// RoomDemoted reports whether room i's web subject has been demoted.
func (b *Building) RoomDemoted(i int) bool {
	return i >= 0 && i < len(b.demoted) && b.demoted[i]
}

// noteRoomOK reports a verified supervisory exchange with room i to the bus
// campaign — the recovery probe that closes bus-fault MTTR windows. Runs on
// the coordinator (head-end OnRound context).
func (b *Building) noteRoomOK(room int) {
	if b.BusInj != nil {
		b.BusInj.NoteRoomOK(room, b.target)
	}
}

// noteQuarantine lands the quarantine verdict on the room's own board: the
// head-end judged the room's response path compromised and stopped polling.
func (b *Building) noteQuarantine(room int) {
	b.Rooms[room].Testbed.Machine.Obs().Events().Emit(obs.SecurityEvent{
		Kind:      obs.EventRoomQuarantined,
		Mechanism: obs.MechResilience,
		Denied:    true,
		Src:       b.Bus.NodeName(b.headNode),
		Dst:       b.Rooms[room].label,
		Detail:    "responses repeatedly failed secure-proxy verification; polling stopped",
	})
}

// noteFailover records the standby takeover, closes the headend-crash MTTR,
// and lands the event on every room's board (the whole building changed
// supervisor).
func (b *Building) noteFailover(round int) {
	b.failoverRound = round
	b.failovers++
	if b.BusInj != nil {
		b.BusInj.NoteFailover(b.target)
	}
	detail := fmt.Sprintf("standby head-end took over at round %d", round)
	for _, room := range b.Rooms {
		room.Testbed.Machine.Obs().Events().Emit(obs.SecurityEvent{
			Kind:      obs.EventHeadEndFailover,
			Mechanism: obs.MechResilience,
			Src:       "bms-standby",
			Dst:       "bms",
			Detail:    detail,
		})
	}
}

// emitBusFault lands a fired bus fault on the affected boards: the targeted
// room's, or every room's for whole-bus and infrastructure faults.
func (b *Building) emitBusFault(f faultinject.Fault) {
	detail := f.String()
	emit := func(room *Room) {
		room.Testbed.Machine.Obs().Events().Emit(obs.SecurityEvent{
			Kind:      obs.EventFaultInjected,
			Mechanism: obs.MechResilience,
			Src:       "faultinject",
			Dst:       f.Target,
			Detail:    detail,
		})
	}
	if f.Target != "" && f.Kind != faultinject.KindHeadEndCrash {
		for _, room := range b.Rooms {
			if room.label == f.Target {
				emit(room)
				return
			}
		}
	}
	for _, room := range b.Rooms {
		emit(room)
	}
}

// FailoverRound reports the round the standby took over (-1 if never).
func (b *Building) FailoverRound() int { return b.failoverRound }

// Failovers reports how many head-end takeovers happened.
func (b *Building) Failovers() int { return b.failovers }

// Step advances the whole building by one lockstep round:
//
//  1. every board runs to the round deadline, in parallel across the worker
//     pool: each worker is woken once and claims boards from a shared index,
//     so each board's engine is touched by exactly one goroutine, and the
//     WaitGroup barrier orders each round's work against the coordinator;
//  2. the first bus barrier delivers everything the boards queued — room
//     gateway responses, and any on-board attacker's frames;
//  3. the head-end harvests responses, advances its schedule, and queues the
//     next requests;
//  4. the second barrier delivers the head-end's frames, so boards see them
//     when the next round starts.
//
// Nothing in the sequence depends on goroutine scheduling, which is why the
// building's report is byte-identical at any worker count.
func (b *Building) Step() {
	rsc := b.phRound.Begin()
	b.round++
	b.elapsed += b.slice
	b.target = machine.Time(0).Add(b.elapsed)
	if b.BusInj != nil {
		// Boards are parked here, so landing fault events on their logs is
		// coordinator-only work, stamped at the previous round's deadline.
		for _, f := range b.BusInj.BeginRound(b.target) {
			b.emitBusFault(f)
		}
	}
	var stepStart time.Time
	if b.prof != nil {
		stepStart = time.Now()
	}
	b.claim.Store(0)
	b.wg.Add(b.workers)
	for w := 0; w < b.workers; w++ {
		b.wake <- struct{}{}
	}
	b.wg.Wait()
	if b.prof != nil {
		atomic.AddInt64(&b.stepWallNs, int64(time.Since(stepStart)))
	}
	b.Bus.Flush()
	hsc := b.phHead.Begin()
	if b.BusInj == nil || !b.BusInj.HeadEndDown() {
		b.Head.OnRound(b.round, b.elapsed)
	}
	if b.Standby != nil {
		b.Standby.OnRound(b.round, b.elapsed)
	}
	hsc.End()
	b.Bus.Flush()
	if b.tenant != nil {
		// Boards are parked between rounds, so the tier's batch (including
		// setpoint writes stepping a room's machine) is coordinator-only work.
		b.driveTenant()
	}
	rsc.End()
}

// Run advances the building by d (rounded up to whole rounds).
func (b *Building) Run(d time.Duration) {
	rounds := int((d + b.slice - 1) / b.slice)
	for i := 0; i < rounds; i++ {
		b.Step()
	}
}

// Round reports the number of completed rounds.
func (b *Building) Round() int { return b.round }

// Elapsed reports the building's virtual time.
func (b *Building) Elapsed() time.Duration { return b.elapsed }

// Slice reports the round length.
func (b *Building) Slice() time.Duration { return b.slice }

// HeadNode is the bus node the BMS dials from (the attack layer filters bus
// taps by it).
func (b *Building) HeadNode() vnet.NodeID { return b.headNode }

// Close stops the worker pool and tears down every board.
func (b *Building) Close() {
	if b.closed {
		return
	}
	b.closed = true
	close(b.wake)
	for _, room := range b.Rooms {
		if room != nil {
			room.Testbed.Machine.Shutdown()
		}
	}
}
