package building

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mkbas/internal/bas"
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

func TestCloseReleasesWorkersAndBoards(t *testing.T) {
	before := runtime.NumGoroutine()
	b, err := New(Config{Rooms: 4, Mix: paperMix(), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(2 * time.Minute)
	// Every worker is parked on the round wake here; Close must release
	// them and unwind every board's processes.
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	// Other tests' leftovers may exit meanwhile, so the count can fall
	// below before; it must never stay above it.
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close = %d, want <= %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
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
