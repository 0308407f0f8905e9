package bas

import (
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
)

// Supervision is the room-side half of the building resilience story: the
// gateway's watchdog on supervisory traffic. A room that stops hearing from
// its BMS — bus partition, head-end death, cut cable — must not coast on
// whatever setpoint it last happened to hold: it falls back to the last
// setpoint a *verified* supervisory write committed, keeps its local
// failsafe rules, and re-converges when supervision returns.
//
// The verification boundary is the secure proxy. On proxied rooms the proxy
// drops forged and replayed frames before the gateway's store ever sees
// them, so every NoteFrame/NoteCommit really was the head-end — the
// committed setpoint is trustworthy. On legacy rooms any on-bus attacker
// can keep the room "supervised" and poison the committed value; degraded
// mode inherits exactly the trust of the protocol underneath, which is the
// paper's point restated at building scale.
//
// One Supervision instance is shared by the gateway process (NoteFrame /
// NoteCommit) and the controller (Check from OnTick). Both run on the same
// board engine, so the sharing is single-threaded and deterministic.
type Supervision struct {
	now    func() machine.Time
	window time.Duration
	events *obs.EventLog

	lost     *obs.Counter
	restored *obs.Counter
	state    *obs.Gauge // 1 while degraded

	committed float64
	lastSeen  machine.Time
	seenAny   bool
	degraded  bool
}

// NewSupervision builds the watchdog. window is how long the gateway may go
// without verified supervisory traffic before the room degrades; committed
// seeds the fallback setpoint (the value the room booted with, until a
// verified write commits another).
func NewSupervision(now func() machine.Time, board *obs.Board, window time.Duration, committed float64) *Supervision {
	return &Supervision{
		now:       now,
		window:    window,
		events:    board.Events(),
		lost:      board.Metrics().Counter("supervision_lost_total"),
		restored:  board.Metrics().Counter("supervision_restored_total"),
		state:     board.Metrics().Gauge("supervision_degraded"),
		committed: committed,
	}
}

// newDeploySupervision builds the room's supervisory watchdog when the
// deployment options ask for one, binding it into cfg.Controller so the
// platform's controller body picks it up. Deploy calls it before the
// backend constructs the controller; nil (and zero cost) unless the
// gateway is enabled with a positive SupervisionWindow.
func newDeploySupervision(tb *Testbed, cfg *ScenarioConfig, opts DeployOptions) *Supervision {
	if !opts.BACnet.Enabled || opts.BACnet.SupervisionWindow <= 0 {
		return nil
	}
	sup := NewSupervision(tb.Machine.Clock().Now, tb.Machine.Obs(), opts.BACnet.SupervisionWindow, cfg.Controller.Setpoint)
	cfg.Controller.Supervision = sup
	return sup
}

// NoteFrame records one verified supervisory frame reaching the gateway. A
// degraded room exits degraded mode here: supervision is back.
func (s *Supervision) NoteFrame() {
	if s == nil {
		return
	}
	s.lastSeen = s.now()
	s.seenAny = true
	if !s.degraded {
		return
	}
	s.degraded = false
	s.state.Set(0)
	s.restored.Inc()
	s.events.Emit(obs.SecurityEvent{
		Kind:      obs.EventSupervisionRestored,
		Mechanism: obs.MechResilience,
		Src:       NameBACnetGateway,
		Dst:       NameTempControl,
		Detail:    "supervisory traffic restored; re-converging",
	})
}

// NoteCommit records a verified supervisory setpoint write that the
// controller accepted — the value a later outage falls back to.
func (s *Supervision) NoteCommit(v float64) {
	if s == nil {
		return
	}
	s.committed = v
}

// Check runs the watchdog at virtual instant now and reports the degraded-
// mode fallback: the last committed setpoint and whether the room is in (or
// just entered) degraded mode. Until the first supervisory frame arrives
// the room is simply unsupervised, not degraded — a building still booting
// must not alarm.
func (s *Supervision) Check(now machine.Time) (fallback float64, degraded bool) {
	if s == nil || s.window <= 0 || !s.seenAny {
		return 0, false
	}
	if !s.degraded {
		if now.Sub(s.lastSeen) < s.window {
			return 0, false
		}
		s.degraded = true
		s.state.Set(1)
		s.lost.Inc()
		s.events.Emit(obs.SecurityEvent{
			Kind:      obs.EventSupervisionLost,
			Mechanism: obs.MechResilience,
			Src:       NameBACnetGateway,
			Dst:       NameTempControl,
			Detail:    "no supervisory traffic; reverting to last-committed setpoint",
		})
	}
	return s.committed, true
}

// Degraded reports whether the room is currently in degraded mode.
func (s *Supervision) Degraded() bool { return s != nil && s.degraded }
