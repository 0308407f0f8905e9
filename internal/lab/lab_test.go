package lab

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
)

// TestExpandOrder pins the expansion order: platform outermost, then model,
// action, plant, quota — shard index equals position. The merge keys on this
// order, so changing it silently changes every golden file.
func TestExpandOrder(t *testing.T) {
	s := Sweep{
		Platforms: []bas.Platform{bas.PlatformMinix, bas.PlatformSel4},
		Actions:   []attack.Action{attack.ActionSpoofSensor, attack.ActionForkBomb},
		Models:    []Model{ModelUser, ModelRoot},
		Plants:    []Plant{PlantDefault},
		Quotas:    []int{0, 8},
	}
	cases := s.Expand()
	// MINIX: 2 models × 2 actions × 1 plant × 2 quotas = 8.
	// seL4 (quota axis collapses): 2 × 2 × 1 × 1 = 4.
	if len(cases) != 12 {
		t.Fatalf("expanded %d cases, want 12", len(cases))
	}
	for i, c := range cases {
		if c.Shard != i {
			t.Errorf("case %d has shard %d", i, c.Shard)
		}
	}
	first := cases[0]
	if first.Platform != bas.PlatformMinix || first.Model != ModelUser ||
		first.Action != attack.ActionSpoofSensor || first.ForkQuota != 0 {
		t.Errorf("unexpected first case: %+v", first)
	}
	if cases[1].ForkQuota != 8 {
		t.Errorf("quota must be the innermost axis, got %+v", cases[1])
	}
	for _, c := range cases[8:] {
		if c.Platform != bas.PlatformSel4 {
			t.Errorf("cases 8.. must be sel4, got %+v", c)
		}
		if c.ForkQuota != 0 {
			t.Errorf("non-MINIX case carries quota: %+v", c)
		}
	}
}

func TestParseSweep(t *testing.T) {
	s, err := ParseSweep("platforms=paper;actions=all;models=both;plants=default;quotas=0")
	if err != nil {
		t.Fatalf("ParseSweep: %v", err)
	}
	if got, want := len(s.Platforms), 3; got != want {
		t.Errorf("platforms=paper: got %d platforms, want %d", got, want)
	}
	if got, want := len(s.Actions), len(attack.AllActions()); got != want {
		t.Errorf("actions=all: got %d, want %d", got, want)
	}
	if got, want := len(s.Models), 2; got != want {
		t.Errorf("models=both: got %d, want %d", got, want)
	}

	// Duplicates collapse: "paper" already includes linux.
	s, err = ParseSweep("platforms=paper,linux")
	if err != nil {
		t.Fatalf("ParseSweep: %v", err)
	}
	if got := len(s.Platforms); got != 3 {
		t.Errorf("paper,linux: got %d platforms, want 3", got)
	}

	for _, bad := range []string{
		"platforms=windows",
		"actions=frobnicate",
		"models=guest",
		"plants=volcano",
		"quotas=many",
		"quotas=-1",
		"color=red",
		"platforms",
	} {
		if _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) succeeded, want error", bad)
		}
	}

	// Empty spec is the all-defaults sweep.
	s, err = ParseSweep("")
	if err != nil {
		t.Fatalf("ParseSweep(empty): %v", err)
	}
	if len(s.Expand()) != len(bas.AllPlatforms())*len(attack.AllActions()) {
		t.Errorf("empty sweep expanded to %d cases", len(s.Expand()))
	}
}

// smallSweep is the cheap cross-platform sweep the determinism tests run:
// one fast-failing action on every headline platform, both models.
func smallSweep() Sweep {
	return Sweep{
		Actions: []attack.Action{attack.ActionKillController},
		Models:  []Model{ModelUser, ModelRoot},
	}
}

// TestShardDeterminism is the tentpole contract: the merged campaign JSON is
// byte-identical regardless of worker count. With 6 boards and 8 workers,
// every board runs concurrently with every other; under -race this is also
// the proof that fully independent boards share no mutable state.
func TestShardDeterminism(t *testing.T) {
	serial, err := Run(smallSweep(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := Run(smallSweep(), Options{Workers: 8})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	serialJSON, err := serial.JSON()
	if err != nil {
		t.Fatalf("serial JSON: %v", err)
	}
	parallelJSON, err := parallel.JSON()
	if err != nil {
		t.Fatalf("parallel JSON: %v", err)
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Fatalf("merged JSON differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialJSON, parallelJSON)
	}
	if len(serial.Cases) != 6 {
		t.Fatalf("smallSweep expanded to %d cases, want 6", len(serial.Cases))
	}
	// The kill attack is the paper's sharpest split: blocked on the
	// microkernels, controller dead on Linux.
	for _, sr := range serial.Cases {
		switch sr.Case.Platform {
		case bas.PlatformMinix, bas.PlatformSel4:
			if sr.Verdict != "BLOCKED" {
				t.Errorf("%s: verdict %s, want BLOCKED", sr.Case, sr.Verdict)
			}
		case bas.PlatformLinux:
			if sr.Verdict != "COMPROMISED" {
				t.Errorf("%s: verdict %s, want COMPROMISED", sr.Case, sr.Verdict)
			}
		}
	}
}

// chaosSweep is the E10 campaign the fault determinism tests run: no
// attacker, one crash fault and one hang fault on every headline platform.
func chaosSweep() Sweep {
	return Sweep{
		Actions: []attack.Action{attack.ActionNone},
		Models:  []Model{ModelUser},
		Faults:  []string{"crash-sensor", "hang-sensor"},
	}
}

// TestFaultSweepDeterminism extends the byte-identity contract to the chaos
// axis: fault injection, recovery timing, and MTTR accounting are pure
// virtual-time functions, so the merged campaign JSON cannot depend on how
// many boards ran concurrently.
func TestFaultSweepDeterminism(t *testing.T) {
	serial, err := Run(chaosSweep(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := Run(chaosSweep(), Options{Workers: 8})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	serialJSON, err := serial.JSON()
	if err != nil {
		t.Fatalf("serial JSON: %v", err)
	}
	parallelJSON, err := parallel.JSON()
	if err != nil {
		t.Fatalf("parallel JSON: %v", err)
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Fatalf("merged JSON differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialJSON, parallelJSON)
	}
	if len(serial.Cases) != 6 {
		t.Fatalf("chaosSweep expanded to %d cases, want 6", len(serial.Cases))
	}

	// The E10 table: a crashed sensor driver is healed on the microkernels
	// and lost for good on supervisor-less Linux; a hang self-heals
	// everywhere behind the controller's failsafe.
	for _, sr := range serial.Cases {
		want := "BLOCKED"
		if sr.Case.Faults == "crash-sensor" {
			want = "RECOVERED"
			if sr.Case.Platform == bas.PlatformLinux {
				want = "COMPROMISED"
			}
		}
		if sr.Verdict != want {
			t.Errorf("%s: verdict %s, want %s", sr.Case, sr.Verdict, want)
		}
	}

	// Chaos accounting flows into the merged aggregate.
	agg := serial.Merged
	if agg.FaultsInjected != 6 || agg.FaultsRecovered != 5 || agg.FaultsUnrecovered != 1 {
		t.Errorf("aggregate faults %d/%d/%d, want 6 injected, 5 recovered, 1 unrecovered",
			agg.FaultsInjected, agg.FaultsRecovered, agg.FaultsUnrecovered)
	}
	if agg.Restarts < 2 {
		t.Errorf("aggregate restarts %d, want >= 2 (minix RS + seL4 monitor)", agg.Restarts)
	}
	if agg.MTTRCount != 5 || agg.MTTRMaxNs <= 0 {
		t.Errorf("aggregate MTTR count %d max %d, want 5 recoveries with a positive max", agg.MTTRCount, agg.MTTRMaxNs)
	}
	if !strings.Contains(serial.Text(), "faults:") {
		t.Error("text report omits the fault campaign line")
	}
}

// TestAggregateMerge spot-checks the merged collections: totals sum across
// shards and every merged collection is sorted by key.
func TestAggregateMerge(t *testing.T) {
	res, err := Run(smallSweep(), Options{Workers: 4})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	agg := res.Merged
	if agg.Cases != len(res.Cases) {
		t.Errorf("aggregate cases %d != %d", agg.Cases, len(res.Cases))
	}
	var attempts int
	for _, sr := range res.Cases {
		attempts += sr.Report.Attempts
	}
	if agg.Attempts != attempts {
		t.Errorf("aggregate attempts %d, want %d", agg.Attempts, attempts)
	}
	var verdictSum int
	for _, v := range agg.Verdicts {
		verdictSum += v.Count
	}
	if verdictSum != len(res.Cases) {
		t.Errorf("verdict counts sum to %d, want %d", verdictSum, len(res.Cases))
	}
	for i := 1; i < len(agg.Counters); i++ {
		if agg.Counters[i-1].Name >= agg.Counters[i].Name {
			t.Errorf("merged counters unsorted at %d: %q >= %q", i, agg.Counters[i-1].Name, agg.Counters[i].Name)
		}
	}
	for i := 1; i < len(agg.IPCUsages); i++ {
		a, b := agg.IPCUsages[i-1], agg.IPCUsages[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst) {
			t.Errorf("merged IPC usages unsorted at %d", i)
		}
	}
	if len(agg.Mechanisms) == 0 {
		t.Error("campaign with blocked attacks reports no denying mechanisms")
	}
	// Per-shard counters must sum into the merged value.
	want := make(map[string]int64)
	for _, sr := range res.Cases {
		for _, c := range sr.Report.Obs.Counters {
			want[c.Name] += c.Value
		}
	}
	for _, c := range agg.Counters {
		if c.Value != want[c.Name] {
			t.Errorf("merged counter %s = %d, want %d", c.Name, c.Value, want[c.Name])
		}
	}
}

// TestRunValidates rejects bad sweeps before booting anything.
func TestRunValidates(t *testing.T) {
	if _, err := Run(Sweep{Platforms: []bas.Platform{"os2-warp"}}, Options{Workers: 1}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := Run(Sweep{Plants: []Plant{"lava"}}, Options{Workers: 1}); err == nil {
		t.Error("unknown plant accepted")
	}
}

// TestCampaignJSONGolden pins the SHA-256 of a small campaign's merged JSON.
// The sweep covers every denied-event shape a report carries: seL4
// capability faults with a thousand distinct details (enumerate-handles) and
// a wrapped 16,384-event ring (kill-controller), MINIX fork-quota denials,
// hardened-Linux DAC denials, and the tenant tier's four denial layers
// (api-flood). Any change to how reports store or export their events must
// leave these bytes alone.
func TestCampaignJSONGolden(t *testing.T) {
	const want = "79f80d60e98769b3f48097ab6ec2dbc2f4a9f7fcc53e21935eb8a7caa7bfed5c"
	sweep, err := ParseSweep("platforms=minix3-acm,sel4,linux-hardened;" +
		"actions=enumerate-handles,fork-bomb,kill-controller,api-flood;models=user;quotas=8")
	if err != nil {
		t.Fatalf("ParseSweep: %v", err)
	}
	res, err := Run(sweep, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want {
		t.Fatalf("campaign JSON sha256 = %s, want %s (%d bytes)", got, want, len(out))
	}
}

func TestMatrixHeadlineShape(t *testing.T) {
	// One row of the paper's headline comparison, the root attacker model on
	// the kill attack: Linux falls, both microkernels stand.
	res, err := Run(Sweep{
		Actions: []attack.Action{attack.ActionKillController},
		Models:  []Model{ModelRoot},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var reports []*attack.Report
	byPlatform := make(map[bas.Platform]*attack.Report)
	for _, sr := range res.Cases {
		reports = append(reports, sr.Report)
		byPlatform[sr.Case.Platform] = sr.Report
	}
	table := attack.FormatMatrix(reports)
	t.Logf("\n%s", table)
	if byPlatform[bas.PlatformLinux].ControllerAlive {
		t.Error("linux controller survived")
	}
	if !byPlatform[bas.PlatformMinix].ControllerAlive {
		t.Error("minix controller died")
	}
	if !byPlatform[bas.PlatformSel4].ControllerAlive {
		t.Error("sel4 controller died")
	}
	if !strings.Contains(table, "COMPROMISED") || !strings.Contains(table, "BLOCKED") {
		t.Errorf("table missing verdicts:\n%s", table)
	}
}
