package loadgen

import (
	"bytes"
	"testing"

	"mkbas/internal/tenantapi"
)

// smallPlan is big enough to hit every outcome class but fast enough for the
// unit suite.
func smallPlan() Plan {
	return Plan{Seed: 0xE16, Requests: 40_000, Shards: 8}
}

func TestRunCoversOutcomes(t *testing.T) {
	rep, err := Run(smallPlan())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Requests != 40_000 {
		t.Fatalf("requests = %d, want 40000", rep.Requests)
	}
	var sum int64
	for _, v := range rep.Outcomes {
		sum += v
	}
	if sum != rep.Requests {
		t.Fatalf("outcome tallies sum to %d, want %d", sum, rep.Requests)
	}
	// The mix is tuned so every mediation layer fires: session auth (401),
	// RBAC (403), validation (400), routing (404), rate limiting (429), and
	// admission control (503), alongside served traffic.
	for _, o := range []tenantapi.Outcome{
		tenantapi.OutcomeOK, tenantapi.OutcomeBadRequest, tenantapi.OutcomeUnauthorized,
		tenantapi.OutcomeForbidden, tenantapi.OutcomeNotFound,
		tenantapi.OutcomeRateLimited, tenantapi.OutcomeOverload,
	} {
		if rep.Outcomes[o.String()] == 0 {
			t.Errorf("outcome %s never occurred; tallies: %v", o, rep.Outcomes)
		}
	}
	if rep.Served == 0 || rep.BackendWrites == 0 {
		t.Fatalf("served=%d backend_writes=%d, want both > 0", rep.Served, rep.BackendWrites)
	}
	if len(rep.Histograms) == 0 || len(rep.Counters) == 0 {
		t.Fatalf("merged metrics empty: %d histograms, %d counters", len(rep.Histograms), len(rep.Counters))
	}
	for _, h := range rep.Histograms {
		if h.Count > 0 && (h.P50Ns <= 0 || h.P99Ns < h.P50Ns) {
			t.Errorf("histogram %s has degenerate quantiles p50=%d p99=%d", h.Name, h.P50Ns, h.P99Ns)
		}
	}
	if len(rep.Mechanisms) == 0 {
		t.Fatalf("no denial mechanisms recorded")
	}
}

// TestWorkerCountInvariance is the determinism contract: the merged JSON is
// byte-identical whether the shards run serially or across a pool.
func TestWorkerCountInvariance(t *testing.T) {
	var baseline []byte
	for _, workers := range []int{1, 3, 8} {
		plan := smallPlan()
		plan.Workers = workers
		rep, err := Run(plan)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		if baseline == nil {
			baseline = out
			continue
		}
		if !bytes.Equal(out, baseline) {
			t.Fatalf("workers=%d produced different bytes than workers=1 (%d vs %d bytes)",
				workers, len(out), len(baseline))
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a, err := Run(smallPlan())
	if err != nil {
		t.Fatal(err)
	}
	plan := smallPlan()
	plan.Seed++
	b, err := Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if bytes.Equal(aj, bj) {
		t.Fatal("different seeds produced identical reports")
	}
}
