package bas

import (
	"testing"
	"time"

	"mkbas/internal/obs"
)

// Experiment E12's deployment-level acceptance: the online policy monitor
// attaches to all three kernel bindings, stays silent on certified traffic,
// and flags an injected out-of-graph IPC in the same virtual tick it is
// recorded — the observer runs synchronously inside the kernel's record
// path, so detection latency is zero by construction and these tests pin
// that construction.

func monitoredPlatforms() []Platform {
	return []Platform{PlatformMinix, PlatformSel4, PlatformLinux}
}

func TestMonitorCleanOnCertifiedTraffic(t *testing.T) {
	for _, p := range monitoredPlatforms() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			dep, err := Deploy(p, tb, cfg, DeployOptions{Monitor: true})
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			dep.Run(30 * time.Minute)
			st := dep.PolicyMonitor().Stats()
			if st.Observed == 0 {
				t.Fatal("monitor observed no deliveries in 30 minutes of closed-loop traffic")
			}
			if st.PolicyDrifts != 0 || st.OriginDrifts != 0 {
				t.Fatalf("certified traffic drifted: %+v", st)
			}
			for _, e := range tb.Machine.Obs().Events().Events() {
				if e.Kind == obs.EventPolicyDrift || e.Kind == obs.EventOriginDrift {
					t.Fatalf("drift event on certified traffic: %+v", e)
				}
			}
		})
	}
}

func TestMonitorFlagsInjectedIPCWithinOneTick(t *testing.T) {
	// The injection goes through machine.IPCLog.Record — the single funnel
	// all three kernels report deliveries through — at a scheduled virtual
	// instant, mid-run, with the scenario's own traffic flowing around it.
	const injectAt = 10 * time.Minute
	for _, p := range monitoredPlatforms() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := DefaultScenario()
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			dep, err := Deploy(p, tb, cfg, DeployOptions{Monitor: true})
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}

			var drifts []obs.SecurityEvent
			cancel := tb.Machine.Obs().Events().Subscribe(func(e obs.SecurityEvent) {
				if e.Kind == obs.EventPolicyDrift {
					drifts = append(drifts, e)
				}
			})
			defer cancel()

			tb.Machine.Clock().After(injectAt, func() {
				log := tb.Machine.IPC()
				log.Record(log.Edges().Intern("intruder", "nowhere", "mt63"))
			})
			dep.Run(20 * time.Minute)

			if len(drifts) != 1 {
				t.Fatalf("got %d policy-drift events, want exactly the injected one: %+v", len(drifts), drifts)
			}
			e := drifts[0]
			if e.At != obs.Time(injectAt) {
				t.Fatalf("drift flagged at %v, injected at %v: not the same tick", e.At, obs.Time(injectAt))
			}
			if e.Src != "intruder" || e.Dst != "nowhere" || e.Detail != "mt63" {
				t.Fatalf("drift attribution = %+v", e)
			}
			if e.Mechanism != obs.MechPolicyMonitor {
				t.Fatalf("drift mechanism = %q", e.Mechanism)
			}
			if st := dep.PolicyMonitor().Stats(); st.PolicyDrifts != 1 {
				t.Fatalf("stats = %+v, want PolicyDrifts 1", st)
			}
		})
	}
}

func TestMonitorOffByDefault(t *testing.T) {
	cfg := DefaultScenario()
	tb := NewTestbed(cfg)
	defer tb.Machine.Shutdown()
	dep, err := Deploy(PlatformMinix, tb, cfg, DeployOptions{})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if dep.PolicyMonitor() != nil {
		t.Fatal("monitor attached without DeployOptions.Monitor")
	}
	// The nil monitor's Stats must still be callable (orchestration layers
	// read it unconditionally).
	if st := dep.PolicyMonitor().Stats(); st.Observed != 0 {
		t.Fatalf("nil monitor stats = %+v", st)
	}
}
