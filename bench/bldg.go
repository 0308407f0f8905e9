package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/bas"
	"mkbas/internal/building"
	"mkbas/internal/machine"
	"mkbas/internal/perf"
	"mkbas/internal/plant"
	"mkbas/internal/vnet"
)

// bldgJob is a building workload: Rooms boards over the five-platform
// rotation with every even room behind the secure proxy, WarmupRounds
// untimed rounds, then Steps timed Building.Step calls.
type bldgJob struct {
	Rooms        int
	WarmupRounds int
	Steps        int
	// Supervisory polls every room every round and attaches the online policy
	// monitor and the tenant API tier.
	Supervisory bool
}

// A workload sets up at least setupReps times and for at least setupSpan;
// setup_s is the median. Set-up takes milliseconds, and the span spreads its
// samples over more than one of the host's short speed phases.
const (
	setupReps = 5
	setupSpan = time.Second
)

// decodeSample bounds how many tapped legacy frames the traced pass keeps for
// the BACnet decode replay, so its memory stays flat at any run length.
const decodeSample = 4096

// platformLayer names each platform's kernel layer in the ledger.
var platformLayer = map[bas.Platform]string{
	bas.PlatformMinix:         "minix.acm",
	bas.PlatformMinixVanilla:  "minix.vanilla",
	bas.PlatformSel4:          "sel4",
	bas.PlatformLinux:         "linuxsim.vanilla",
	bas.PlatformLinuxHardened: "linuxsim.hardened",
}

func (j bldgJob) config(seed int64, workers int, prof *perf.Profiler) building.Config {
	secure := make([]bool, j.Rooms)
	for i := range secure {
		secure[i] = i%2 == 0
	}
	cfg := building.Config{
		Rooms:    j.Rooms,
		Mix:      bas.KnownPlatforms(),
		Secure:   secure,
		Scenario: bas.ScenarioConfig{Seed: seed},
		Workers:  workers,
		Profiler: prof,
	}
	if j.Supervisory {
		cfg.HeadEnd.PollPeriod = time.Second
		cfg.Monitor = true
		cfg.TenantAPI = true
	}
	return cfg
}

// roomCounters are one board's cumulative deterministic counters.
type roomCounters struct {
	traps, ctxsw, dispatches, ipc, devIO int64
	accepted, rejected, observed, drifts int64
	kernel                               time.Duration
}

// bldgCounters snapshots the building between rounds.
type bldgCounters struct {
	rooms                       []roomCounters
	pollsSent, answered, missed int64
	apiRequests, webWrites      int64
	apiOutcomes                 map[string]int64
	stepWallNs, workerBusyNs    int64
}

func snapBuilding(b *building.Building) bldgCounters {
	rep := b.Report()
	c := bldgCounters{
		pollsSent:  int64(rep.PollsSent),
		answered:   int64(rep.PollsAnswered),
		missed:     int64(rep.PollsMissed),
		stepWallNs: b.StepWallNs(),
	}
	if rep.API != nil {
		c.apiRequests = rep.API.Requests
		c.webWrites = rep.API.BuildingWrite
		c.apiOutcomes = rep.API.Outcomes
	}
	for _, w := range b.WorkerStats() {
		c.workerBusyNs += w.BusyNs
	}
	for i, room := range b.Rooms {
		m := room.Testbed.Machine
		st := m.Engine().Stats()
		rc := roomCounters{
			traps:      st.Traps,
			ctxsw:      st.ContextSwitches,
			kernel:     st.KernelTime,
			dispatches: m.Obs().Metrics().Counter("machine_dispatches_total").Value(),
			accepted:   rep.RoomReports[i].FramesAccepted,
			rejected:   rep.RoomReports[i].FramesRejected,
			drifts:     b.BusDrifts(i),
		}
		for _, u := range m.IPC().Usages() {
			rc.ipc += u.Count
		}
		for _, dev := range []machine.DeviceID{plant.DevTempSensor, plant.DevHeater, plant.DevAlarm} {
			r, w := m.Bus().IOCount(dev)
			rc.devIO += r + w
		}
		ms := room.Dep.PolicyMonitor().Stats()
		rc.observed = ms.Observed
		rc.drifts += ms.PolicyDrifts + ms.OriginDrifts
		c.rooms = append(c.rooms, rc)
	}
	return c
}

// busTap counts the frames the bus delivers during the timed window and keeps
// a bounded sample of the head-end's legacy (unsealed) BACnet requests.
type busTap struct {
	on     bool
	frames int64
	bytes  int64
	legacy [][]byte
}

func (t *busTap) attach(b *building.Building) {
	b.Bus.AddTap(func(f vnet.TapFrame) {
		if !t.on {
			return
		}
		t.frames++
		t.bytes += int64(len(f.Payload))
		to := int(f.To)
		if f.From == b.HeadNode() && to < len(b.Rooms) && !b.Rooms[to].Secure && len(t.legacy) < decodeSample {
			t.legacy = append(t.legacy, f.Payload)
		}
	})
}

func (j bldgJob) run(seed int64, workers int, prof *perf.Profiler) (*pass, error) {
	p := newPass()
	cfg := j.config(seed, workers, prof)
	var b *building.Building
	deploy := func() (err error) {
		b, err = building.New(cfg)
		return err
	}
	var err error
	if prof != nil {
		err = deploy() // set-up time comes from the untraced pass
	} else {
		// The last building set up is the one the run drives.
		err = p.timeSetup(func() {
			if b != nil {
				b.Close()
			}
		}, deploy)
	}
	if err != nil {
		return nil, fmt.Errorf("building.New: %w", err)
	}
	defer b.Close()
	tap := &busTap{}
	if prof != nil {
		tap.attach(b)
	}
	for i := 0; i < j.WarmupRounds; i++ {
		b.Step()
	}

	before := snapBuilding(b)
	phBefore := prof.Snapshot(true)
	tap.on = true
	p.steps = make([]time.Duration, j.Steps)
	p.startWindow()
	for i := range p.steps {
		if i%1000 == 0 {
			p.heap.sample()
		}
		start := time.Now()
		b.Step()
		p.steps[i] = time.Since(start)
	}
	p.endWindow()
	p.heap.sample()
	tap.on = false
	after := snapBuilding(b)

	rounds := float64(j.Steps)
	boardS := float64(j.Rooms) * rounds * b.Slice().Seconds()
	p.units = boardS
	p.unitBase = fmt.Sprintf("board-virtual-s=%.0f (%d rooms x %d rounds)", boardS, j.Rooms, j.Steps)

	rep := b.Report()
	out, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(out)
	p.digest = hex.EncodeToString(sum[:])
	p.attempted = after.pollsSent - before.pollsSent
	p.failed = after.missed - before.missed
	p.errs = append(p.errs, j.invariants(rep)...)
	j.exactLedger(p, before, after, b, rep, rounds, boardS)
	if prof != nil {
		j.hostLedger(p, prof, phBefore, before, after, tap, rounds, boardS, workers)
	} else {
		p.setSteps("building.round_ms_p50", "building.round_ms_p90")
		ms := sortedMs(p.steps)
		if v, ok := tail(ms, 99); ok {
			p.set("building.round_ms_p99", v, len(ms), "")
		}
		p.set("building.round_ms_max", ms[len(ms)-1], len(ms), "")
		p.set("machine.allocs_per_board_s", float64(p.allocs)/boardS, 0, p.unitBase)
	}
	return p, nil
}

// invariants checks the run's outputs: every controller alive, nothing
// quarantined, no missed poll, no policy drift, and a tenant tally that adds
// up. Occupants may legitimately move a room's setpoint off the building
// schedule, so with the tenant tier attached a room may be flagged out of
// band — but for no other reason.
func (j bldgJob) invariants(rep *building.Report) []string {
	var errs []string
	if rep.PollsMissed != 0 {
		errs = append(errs, fmt.Sprintf("%d polls missed", rep.PollsMissed))
	}
	if len(rep.Quarantined) > 0 {
		errs = append(errs, fmt.Sprintf("rooms quarantined: %v", rep.Quarantined))
	}
	if rep.BusDrifts != 0 {
		errs = append(errs, fmt.Sprintf("%d uncertified bus dials", rep.BusDrifts))
	}
	for _, rr := range rep.RoomReports {
		if !rr.ControllerAlive {
			errs = append(errs, fmt.Sprintf("room %d: controller dead", rr.Room))
		}
		if rr.Monitor != nil && rr.Monitor.PolicyDrifts+rr.Monitor.OriginDrifts != 0 {
			errs = append(errs, fmt.Sprintf("room %d: %d policy drifts", rr.Room, rr.Monitor.PolicyDrifts+rr.Monitor.OriginDrifts))
		}
		st := rr.BMS
		outOfBandOnly := st.OutOfBand && !st.Stale && !st.Unreachable && !st.Quarantined && !st.AlarmOn
		if st.Flagged && !(j.Supervisory && outOfBandOnly) {
			errs = append(errs, fmt.Sprintf("room %d flagged: %+v", rr.Room, st))
		}
	}
	if api := rep.API; api != nil {
		var sum int64
		for _, n := range api.Outcomes {
			sum += n
		}
		if sum != api.Requests {
			errs = append(errs, fmt.Sprintf("tenant tally %d != %d requests", sum, api.Requests))
		}
	}
	return errs
}

// exactLedger books the deterministic per-layer counters of the timed window.
func (j bldgJob) exactLedger(p *pass, before, after bldgCounters, b *building.Building, rep *building.Report, rounds, boardS float64) {
	var all roomCounters
	type group struct {
		roomCounters
		rooms float64
	}
	groups := map[string]*group{}
	for i, room := range b.Rooms {
		d := after.rooms[i].minus(before.rooms[i])
		all = all.plus(d)
		layer := platformLayer[room.Platform]
		g := groups[layer]
		if g == nil {
			g = &group{}
			groups[layer] = g
		}
		g.roomCounters = g.plus(d)
		g.rooms++
	}
	base := p.unitBase
	p.set("machine.traps_per_board_s", float64(all.traps)/boardS, 0, base)
	p.set("machine.ctxsw_per_board_s", float64(all.ctxsw)/boardS, 0, base)
	p.set("machine.dispatches_per_board_s", float64(all.dispatches)/boardS, 0, base)
	window := time.Duration(boardS * float64(time.Second))
	p.set("machine.ctrl_kernel_pct", 100*float64(all.kernel)/float64(window), 0,
		fmt.Sprintf("controller time=%s (%s)", window, base))
	// A control cycle is one sample period of one board.
	cyclesPerRound := float64(b.Slice()) / float64(bas.DefaultScenario().SamplePeriod)
	for layer, g := range groups {
		cycles := g.rooms * rounds * cyclesPerRound
		cbase := fmt.Sprintf("cycles=%.0f (%.0f rooms x %.0f rounds)", cycles, g.rooms, rounds)
		p.set(layer+".traps_per_cycle", float64(g.traps)/cycles, 0, cbase)
		p.set(layer+".ctxsw_per_cycle", float64(g.ctxsw)/cycles, 0, cbase)
		p.set(layer+".ipc_msgs_per_cycle", float64(g.ipc)/cycles, 0, cbase)
	}
	cycles := float64(j.Rooms) * rounds * cyclesPerRound
	p.set("bas.dev_io_per_cycle", float64(all.devIO)/cycles, 0, fmt.Sprintf("cycles=%.0f", cycles))
	rbase := fmt.Sprintf("rounds=%.0f", rounds)
	p.set("bas.web_writes_per_round", float64(after.webWrites-before.webWrites)/rounds, 0, rbase)
	p.set("bacnet.frames_accepted_per_round", float64(all.accepted)/rounds, 0, rbase)
	p.set("bacnet.frames_rejected", float64(all.rejected), 0, "")
	sent := after.pollsSent - before.pollsSent
	p.set("building.polls_per_round", float64(sent)/rounds, 0, rbase)
	if sent > 0 {
		p.set("building.poll_answer_ratio", float64(after.answered-before.answered)/float64(sent), 0,
			fmt.Sprintf("polls sent=%d", sent))
	}
	p.set("monitor.observed_per_board_s", float64(all.observed)/boardS, 0, base)
	p.set("monitor.drifts", float64(all.drifts), 0, "")
	if reqs := after.apiRequests - before.apiRequests; reqs > 0 {
		tenantRatios(p, reqs, func(o string) int64 { return after.apiOutcomes[o] - before.apiOutcomes[o] })
		if h := findHist(rep.Histograms, statusLatency); h != nil {
			p.set("tenantapi.vlat_ms_p99", float64(h.P99Ns)/1e6, int(h.Count), "whole run")
		}
	}
}

// hostLedger books the traced pass's host-time layer costs over the timed
// window from the profiler's phase deltas.
func (j bldgJob) hostLedger(p *pass, prof *perf.Profiler, phBefore *perf.Snapshot, before, after bldgCounters, tap *busTap, rounds, boardS float64, workers int) {
	phAfter := prof.Snapshot(true)
	p.phases = phAfter
	d := func(name string) perf.PhaseSnap { return phaseDelta(phBefore, phAfter, name) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	rbase := fmt.Sprintf("rounds=%.0f", rounds)
	run, dispatch := d("engine.run"), d("engine.dispatch")
	p.set("machine.run_us_per_board_s", us(run.TotalNs)/boardS, int(run.Count), p.unitBase)
	if dispatch.Count > 0 {
		p.set("machine.dispatch_ns", float64(dispatch.TotalNs)/float64(dispatch.Count), int(dispatch.Count), "")
	}
	if dep := phase(phAfter, "bas.deploy"); dep.Count > 0 {
		p.set("bas.deploy_ms", float64(dep.TotalNs)/float64(dep.Count)/1e6, int(dep.Count), "")
	}
	p.set("vnet.frames_per_round", float64(tap.frames)/rounds, 0, rbase)
	p.set("vnet.bytes_per_round", float64(tap.bytes)/rounds, 0, rbase)
	flush, head, round, board := d("bus.flush"), d("building.headend"), d("building.round"), d("building.board_step")
	stepWall := after.stepWallNs - before.stepWallNs
	p.set("vnet.flush_us_per_round", us(flush.TotalNs)/rounds, int(flush.Count), rbase)
	p.set("building.headend_us_per_round", us(head.TotalNs)/rounds, int(head.Count), rbase)
	p.set("building.step_window_us_per_round", us(stepWall)/rounds, 0, rbase)
	if board.Count > 0 {
		p.set("building.board_step_us", us(board.TotalNs)/float64(board.Count), int(board.Count), "")
		// Does per-sample trap mediation dominate a control cycle?
		p.set("machine.dispatch_share_pct", 100*float64(dispatch.TotalNs)/float64(board.TotalNs), int(board.Count),
			fmt.Sprintf("engine.dispatch %s of building.board_step %s", time.Duration(dispatch.TotalNs), time.Duration(board.TotalNs)))
	}
	p.set("building.coord_us_per_round", us(round.TotalNs-stepWall-flush.TotalNs-head.TotalNs)/rounds, int(round.Count), rbase)
	if stepWall > 0 {
		busy := after.workerBusyNs - before.workerBusyNs
		p.set("building.worker_util_pct", 100*float64(busy)/float64(int64(workers)*stepWall), 0,
			fmt.Sprintf("workers=%d x step window=%s", workers, time.Duration(stepWall)))
	}
	if obsv := d("monitor.observe"); obsv.Count > 0 {
		p.set("monitor.observe_ns", float64(obsv.TotalNs)/float64(obsv.Count), int(obsv.Count), "")
	}
	if ns, frames, err := decodeReplay(tap.legacy); err != nil {
		p.errs = append(p.errs, err.Error())
	} else if frames > 0 {
		p.set("bacnet.decode_ns_per_frame", ns, frames, fmt.Sprintf("%d tapped legacy frames replayed", len(tap.legacy)))
	}
}

// decodeReplay times Deframer.Feed/Next plus DecodePDU over the sampled
// frames, replayed until enough frames are decoded for a steady per-frame
// figure.
func decodeReplay(frames [][]byte) (nsPerFrame float64, decoded int, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	const target = 1 << 20
	var def bacnet.Deframer
	start := time.Now()
	for decoded < target {
		for _, f := range frames {
			def.Feed(f)
			for raw := def.Next(); raw != nil; raw = def.Next() {
				if _, err := bacnet.DecodePDU(raw); err != nil {
					return 0, 0, fmt.Errorf("tapped legacy frame does not decode: %w", err)
				}
				decoded++
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(decoded), decoded, nil
}

func (a roomCounters) minus(b roomCounters) roomCounters {
	return roomCounters{
		traps: a.traps - b.traps, ctxsw: a.ctxsw - b.ctxsw, dispatches: a.dispatches - b.dispatches,
		ipc: a.ipc - b.ipc, devIO: a.devIO - b.devIO, accepted: a.accepted - b.accepted,
		rejected: a.rejected - b.rejected, observed: a.observed - b.observed,
		drifts: a.drifts - b.drifts, kernel: a.kernel - b.kernel,
	}
}

func (a roomCounters) plus(b roomCounters) roomCounters {
	return roomCounters{
		traps: a.traps + b.traps, ctxsw: a.ctxsw + b.ctxsw, dispatches: a.dispatches + b.dispatches,
		ipc: a.ipc + b.ipc, devIO: a.devIO + b.devIO, accepted: a.accepted + b.accepted,
		rejected: a.rejected + b.rejected, observed: a.observed + b.observed,
		drifts: a.drifts + b.drifts, kernel: a.kernel + b.kernel,
	}
}
