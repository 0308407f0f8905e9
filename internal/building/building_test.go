package building

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/machine"
)

func paperMix() []bas.Platform {
	return []bas.Platform{bas.PlatformLinux, bas.PlatformMinix, bas.PlatformSel4}
}

// evenSecure marks even-numbered rooms secure.
func evenSecure(rooms int) []bool {
	out := make([]bool, rooms)
	for i := range out {
		out[i] = i%2 == 0
	}
	return out
}

func TestBuildingPollsSchedulesAndStaysInBand(t *testing.T) {
	b, err := New(Config{
		Rooms:  4,
		Mix:    paperMix(),
		Secure: evenSecure(4),
		HeadEnd: HeadEndConfig{
			Schedule: []SetpointEvent{{At: 20 * time.Minute, Value: 21}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Run(40 * time.Minute)

	rep := b.Report()
	if rep.Alarm {
		t.Fatalf("healthy building raised the alarm: flagged %v", rep.Flagged)
	}
	if rep.Setpoint != 21 {
		t.Fatalf("scheduled setpoint = %v, want 21", rep.Setpoint)
	}
	if rep.WritesSent != 4 {
		t.Fatalf("writes sent = %d, want 4 (one per room)", rep.WritesSent)
	}
	if rep.PollsAnswered == 0 || rep.PollsMissed != 0 {
		t.Fatalf("polls answered/missed = %d/%d", rep.PollsAnswered, rep.PollsMissed)
	}
	for _, rr := range rep.RoomReports {
		if !rr.BMS.HaveTemp {
			t.Fatalf("room %d: BMS never saw a temperature", rr.Room)
		}
		if rr.BMS.Writes != 1 {
			t.Fatalf("room %d: %d acked writes, want 1", rr.Room, rr.BMS.Writes)
		}
		// Demand-response reached the physical room on every platform.
		if rr.RoomTemp < 20 || rr.RoomTemp > 22 {
			t.Fatalf("room %d (%s): temp %.2f, want ~21 after schedule", rr.Room, rr.Platform, rr.RoomTemp)
		}
		if !rr.ControllerAlive {
			t.Fatalf("room %d: controller dead", rr.Room)
		}
		if rr.FramesRejected != 0 {
			t.Fatalf("room %d: %d frames rejected with no attacker", rr.Room, rr.FramesRejected)
		}
	}
}

func TestBuildingByteDeterministicAcrossWorkers(t *testing.T) {
	run := func(rooms, workers int) []byte {
		b, err := New(Config{
			Rooms:   rooms,
			Mix:     paperMix(),
			Secure:  evenSecure(rooms),
			Workers: workers,
			HeadEnd: HeadEndConfig{
				Schedule: []SetpointEvent{{At: 10 * time.Minute, Value: 23}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.Run(20 * time.Minute)
		out, err := b.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// 16 rooms on 8 workers claim boards under contention; 4 rooms ask for a
	// pool wider than the building.
	for _, rooms := range []int{16, 4} {
		serial := run(rooms, 1)
		parallel := run(rooms, 8)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("%d-room building diverged between 1 and 8 workers:\n1: %d bytes\n8: %d bytes", rooms, len(serial), len(parallel))
		}
	}
}

// stepChecked runs cfg for d one Step at a time and, after every Step,
// checks that each board stood exactly at the round deadline and that the
// workers' job counts add up to one board step per room per round. It
// returns the report JSON.
func stepChecked(t *testing.T, cfg Config, d time.Duration) []byte {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for r := 1; b.Elapsed() < d; r++ {
		b.Step()
		deadline := machine.Time(0).Add(b.Elapsed())
		for _, room := range b.Rooms {
			if now := room.Testbed.Machine.Clock().Now(); now != deadline {
				t.Fatalf("round %d: room %d clock %v, want the deadline %v", r, room.Index, now, deadline)
			}
		}
		var jobs int64
		for _, st := range b.WorkerStats() {
			jobs += st.Jobs
		}
		if want := int64(len(b.Rooms) * r); jobs != want {
			t.Fatalf("round %d: workers stepped %d boards, want rooms*rounds = %d", r, jobs, want)
		}
	}
	out, err := b.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoundPoolStepsEveryRoomOnce checks the round pool's claim discipline
// where blocks are uneven (rooms not a multiple of workers) and where the
// heavy rooms all sit in block 0, so the other workers finish it by
// stealing: every room is stepped exactly once per round, and the report
// matches the serial one byte for byte.
func TestRoundPoolStepsEveryRoomOnce(t *testing.T) {
	// Block 0 of 12 rooms on 3 workers is rooms 0-3: hardened Linux behind
	// the secure proxy, sealed polls every round. The rest run legacy
	// MINIX.
	heavyMix := make([]bas.Platform, 12)
	for i := range heavyMix {
		heavyMix[i] = bas.PlatformMinix
		if i < 4 {
			heavyMix[i] = bas.PlatformLinuxHardened
		}
	}
	cases := []struct {
		name string
		cfg  Config
		d    time.Duration
	}{
		{"7x3", Config{Rooms: 7, Workers: 3, Mix: paperMix(), Secure: evenSecure(7)}, 15 * time.Minute},
		{"5x4", Config{Rooms: 5, Workers: 4, Mix: paperMix(), Secure: evenSecure(5)}, 15 * time.Minute},
		{"64x2", Config{Rooms: 64, Workers: 2, Mix: bas.KnownPlatforms(), Secure: evenSecure(64)}, 5 * time.Minute},
		{"heavy-block-0", Config{
			Rooms: 12, Workers: 3, Mix: heavyMix, Secure: []bool{true, true, true, true},
			HeadEnd: HeadEndConfig{PollPeriod: time.Second},
		}, 15 * time.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parallel := stepChecked(t, tc.cfg, tc.d)
			serialCfg := tc.cfg
			serialCfg.Workers = 1
			if serial := stepChecked(t, serialCfg, tc.d); !bytes.Equal(serial, parallel) {
				t.Fatalf("report diverged from the serial one:\n1: %d bytes\n%d: %d bytes",
					len(serial), tc.cfg.Workers, len(parallel))
			}
		})
	}
}

// TestRoundPoolParksWithoutEnoughPs runs 4 workers on fewer Ps. Nothing
// may spin there (a spinning side would hold a P its peer needs), so every
// handoff parks, and no wake-up may be lost. On one P the 8-room building
// runs 10 virtual minutes; on two, one room per worker keeps the rounds
// short for an hour, so helpers parking keep racing Step publishing the
// next round.
func TestRoundPoolParksWithoutEnoughPs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		procs, rooms int
		d            time.Duration
	}{
		{"1P", 1, 8, 10 * time.Minute},
		{"2P", 2, 4, time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Rooms: tc.rooms, Workers: 4, Mix: paperMix(), Secure: evenSecure(tc.rooms)}
			serialCfg := cfg
			serialCfg.Workers = 1
			serial := stepChecked(t, serialCfg, tc.d)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			done := make(chan []byte, 1)
			go func() {
				b, err := New(cfg)
				if err != nil {
					t.Error(err)
					done <- nil
					return
				}
				defer b.Close()
				b.Run(tc.d)
				if b.spin {
					t.Errorf("round pool spun with GOMAXPROCS=%d < 4 workers", tc.procs)
				}
				out, err := b.Report().JSON()
				if err != nil {
					t.Error(err)
				}
				done <- out
			}()
			var parallel []byte
			select {
			case parallel = <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("4 workers on %d P(s) did not finish %v within 30 s", tc.procs, tc.d)
			}
			if !t.Failed() && !bytes.Equal(serial, parallel) {
				t.Fatalf("4 workers on %d P(s) diverged from 1 worker:\n1: %d bytes\n4: %d bytes",
					tc.procs, len(serial), len(parallel))
			}
		})
	}
}

// TestCloseReleasesWorkersAndBoards closes the building at each point of
// the helpers' life: before they ran any round, right after a Step (while
// they spin for the next one), and once the spin budget has passed (all
// parked). Each time Close must release every goroutine, and a later Step
// must fail loudly rather than touch the torn-down pool.
func TestCloseReleasesWorkersAndBoards(t *testing.T) {
	// The helpers spin only with a P for every worker.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	allParked := func(b *Building) bool {
		for w := 1; w < len(b.pool); w++ {
			if !b.pool[w].parked.Load() {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name string
		prep func(t *testing.T, b *Building)
	}{
		{"after New", func(*testing.T, *Building) {}},
		{"after Step", func(_ *testing.T, b *Building) { b.Step() }},
		{"after the spin budget", func(t *testing.T, b *Building) {
			b.Step()
			// A building no longer stepped must not keep a CPU busy.
			deadline := time.Now().Add(5 * time.Second)
			for !allParked(b) {
				if time.Now().After(deadline) {
					t.Fatal("helpers still spinning 5 s after the last Step")
				}
				time.Sleep(spinBudget)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			b, err := New(Config{Rooms: 4, Mix: paperMix(), Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			tc.prep(t, b)
			b.Close()
			deadline := time.Now().Add(5 * time.Second)
			// Other tests' leftovers may exit meanwhile, so the count can
			// fall below before; it must never stay above it.
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines after Close = %d, want <= %d", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			defer func() {
				if r := recover(); r != "building: Step after Close" {
					t.Fatalf("Step after Close: recovered %v, want the building: Step after Close panic", r)
				}
			}()
			b.Step()
		})
	}
}

func TestBuildingRejectsFaultOutsideRooms(t *testing.T) {
	// A fault aimed past the last room (or before the first) used to be
	// dropped silently: the run reported the plan in its spec and injected
	// nothing.
	for _, room := range []int{2, 5, -1} {
		b, err := New(Config{
			Rooms:  2,
			Mix:    []bas.Platform{bas.PlatformLinux},
			Faults: map[int]string{room: "crash-sensor"},
		})
		if err == nil {
			b.Close()
			t.Errorf("room %d: fault outside a 2-room building accepted", room)
		}
	}
}

func TestBuildingSensorCrashFlagsExactlyThatRoom(t *testing.T) {
	// The E11 fault scenario: one room's sensor driver crashes on a platform
	// with no recovery; the controller's failsafe engages (heater off, local
	// alarm on) while its reported temperature freezes at the last good
	// sample — so the supervisor can only learn the truth from the room's
	// alarm point, and must flag that room and only that room.
	b, err := New(Config{
		Rooms:  4,
		Mix:    []bas.Platform{bas.PlatformLinux},
		Faults: map[int]string{2: "crash-sensor"}, // fires at 40m
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Run(55 * time.Minute)

	rep := b.Report()
	if !rep.Alarm {
		t.Fatal("building alarm not raised")
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0] != 2 {
		t.Fatalf("flagged rooms = %v, want [2]", rep.Flagged)
	}
	faulted := rep.RoomReports[2]
	if faulted.Faults == nil || faulted.Faults.Injected != 1 {
		t.Fatalf("fault report = %+v", faulted.Faults)
	}
	if !faulted.BMS.AlarmOn {
		t.Fatalf("room 2 BMS state = %+v, want relayed alarm", faulted.BMS)
	}
	// The frozen sensor keeps reporting an in-band temperature: the alarm
	// relay, not the temperature band, is what catches this failure.
	if faulted.BMS.OutOfBand {
		t.Fatalf("room 2 BMS state = %+v: frozen sensor should read in-band", faulted.BMS)
	}
}

func TestBuildingPartitionFailoverAndStandbyTakeover(t *testing.T) {
	// The E15 scenario end to end: room 1 is partitioned off the bus at 40m
	// for 10m (it rides the outage on its last-committed setpoint), then the
	// primary head-end dies at 65m and the standby takes over. Every number
	// below is a pure function of virtual time, so exact assertions hold.
	b, err := New(Config{
		Rooms: 4, Mix: paperMix(), Secure: evenSecure(4),
		BusFaults: "partition-failover", Standby: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Run(120 * time.Minute)

	rep := b.Report()
	if rep.BusFaults == nil || rep.BusFaults.Injected != 2 || rep.BusFaults.Recovered != 2 {
		t.Fatalf("bus campaign = %+v, want 2 injected, 2 recovered", rep.BusFaults)
	}
	partition, crash := rep.BusFaults.Faults[0], rep.BusFaults.Faults[1]
	if partition.Kind != "bus-partition" || time.Duration(partition.MTTRNs) != 11*time.Minute+2*time.Second {
		t.Fatalf("partition outcome = %+v, want MTTR 11m2s", partition)
	}
	if crash.Kind != "headend-crash" || time.Duration(crash.MTTRNs) != 64*time.Second {
		t.Fatalf("head-end crash outcome = %+v, want MTTR 1m4s", crash)
	}

	// The standby's silence detector fires a fixed number of rounds after
	// the crash: takeover lands on round 3964 at any worker count.
	if rep.FailoverRound != 3964 || b.FailoverRound() != 3964 {
		t.Fatalf("failover round = %d/%d, want 3964", rep.FailoverRound, b.FailoverRound())
	}
	if !rep.Standby || b.Standby == nil || !b.Standby.Active() {
		t.Fatal("supervisory role did not move to the standby")
	}
	if b.Standby.TakeoverRound() != 3964 {
		t.Fatalf("standby takeover round = %d, want 3964", b.Standby.TakeoverRound())
	}

	// Degraded-mode autonomy: the partitioned room lost gateway supervision
	// during the partition AND the interregnum, and restored both times; the
	// rooms are all healthy again by the end of the run.
	room1 := rep.RoomReports[1]
	if room1.SupervisionLost != 2 || room1.SupervisionRestored != 2 || room1.Degraded {
		t.Fatalf("room 1 supervision = lost %d restored %d degraded %v, want 2/2/false",
			room1.SupervisionLost, room1.SupervisionRestored, room1.Degraded)
	}
	for _, rr := range rep.RoomReports {
		if rr.Failovers != 1 {
			t.Fatalf("room %d failovers = %d, want 1", rr.Room, rr.Failovers)
		}
		if !rr.ControllerAlive {
			t.Fatalf("room %d controller dead", rr.Room)
		}
	}
	if rep.Alarm || len(rep.Flagged) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("post-recovery health: alarm=%v flagged=%v quarantined=%v",
			rep.Alarm, rep.Flagged, rep.Quarantined)
	}
	// The partitioned room's own fault view closes at its first reconfirmed
	// poll, not at the building-wide instant.
	if room1.BusFaults == nil || room1.BusFaults.Recovered != 2 {
		t.Fatalf("room 1 bus-fault view = %+v", room1.BusFaults)
	}
}

func TestBuildingBusDropMarksRoomUnreachable(t *testing.T) {
	// bus-drop refuses room 1's dials outright: the head-end must report the
	// room UNREACHABLE (a cut cable), not merely STALE (silence).
	b, err := New(Config{
		Rooms: 4, Mix: paperMix(), Secure: evenSecure(4),
		BusFaults: "bus-drop",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Run(60 * time.Minute)

	rep := b.Report()
	room1 := rep.RoomReports[1]
	if room1.BMS.UnreachableRounds == 0 {
		t.Fatal("bus-drop never drove room 1 unreachable")
	}
	for _, rr := range rep.RoomReports {
		if rr.Room != 1 && rr.BMS.UnreachableRounds != 0 {
			t.Fatalf("room %d unreachable under a room-1 fault", rr.Room)
		}
	}
	// The 5-minute drop window ends at 45m; by 60m the room has reconfirmed.
	if room1.BusFaults == nil || room1.BusFaults.Recovered != 1 {
		t.Fatalf("room 1 fault view = %+v, want recovered", room1.BusFaults)
	}
	if rep.Alarm {
		t.Fatalf("alarm still raised after the drop window healed: %v", rep.Flagged)
	}
}

func TestBuildingFaultedByteDeterministicAcrossWorkers(t *testing.T) {
	// The resilience machinery must not cost the 1-vs-N-worker contract:
	// partition verdicts, supervision trips, and the standby takeover all
	// land on the same rounds regardless of scheduling.
	run := func(workers int) []byte {
		b, err := New(Config{
			Rooms: 8, Mix: paperMix(), Secure: evenSecure(8),
			Workers: workers, BusFaults: "partition-failover", Standby: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.Run(80 * time.Minute)
		out, err := b.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("faulted 8-room building diverged between 1 and 8 workers:\n1: %d bytes\n8: %d bytes", len(serial), len(parallel))
	}
}
