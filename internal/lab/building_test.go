package lab

import (
	"bytes"
	"testing"
	"time"

	"mkbas/internal/bas"
)

// TestBuildingSweepParseAndExpand pins the grammar and the expansion order:
// rooms outermost, then mix, secure, attack.
func TestBuildingSweepParseAndExpand(t *testing.T) {
	s, err := ParseBuildingSweep("rooms=4,8;mix=paper,linux;secure=even;attack=both;settle=10m;window=15m")
	if err != nil {
		t.Fatal(err)
	}
	cases := s.Expand()
	// 2 rooms × 2 mixes × 1 secure × 2 attacks = 8.
	if len(cases) != 8 {
		t.Fatalf("expanded %d cases, want 8", len(cases))
	}
	for i, c := range cases {
		if c.Shard != i {
			t.Errorf("case %d has shard %d", i, c.Shard)
		}
	}
	first := cases[0]
	if first.Rooms != 4 || first.Mix != "paper" || first.Secure != "even" || first.Attack {
		t.Errorf("unexpected first case: %+v", first)
	}
	if !cases[1].Attack {
		t.Errorf("attack must be the innermost axis, got %+v", cases[1])
	}
	if s.Settle != 10*time.Minute || s.Window != 15*time.Minute {
		t.Errorf("settle/window = %v/%v", s.Settle, s.Window)
	}

	spec, err := first.Spec(s.Settle, s.Window)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Mix) != 3 || spec.Mix[0] != bas.PlatformLinux {
		t.Errorf("paper mix = %v", spec.Mix)
	}
	if len(spec.Secure) != 4 || !spec.Secure[0] || spec.Secure[1] {
		t.Errorf("even secure = %v", spec.Secure)
	}
	if spec.Workers != 1 {
		t.Errorf("campaign cases must run rooms serially, got Workers=%d", spec.Workers)
	}
}

func TestBuildingSweepRejectsBadValues(t *testing.T) {
	for _, bad := range []string{
		"rooms=0",
		"mix=notaplatform",
		"mix=linux+bogus",
		"secure=1+x",
		"attack=maybe",
		"settle=10m,20m",
		"window=soon",
		"floors=2",
	} {
		if _, err := ParseBuildingSweep(bad); err == nil {
			t.Errorf("sweep %q parsed without error", bad)
		}
	}
}

func TestSecurePatterns(t *testing.T) {
	for _, tc := range []struct {
		pattern SecurePattern
		want    []bool
	}{
		{"none", nil},
		{"all", []bool{true, true, true, true}},
		{"even", []bool{true, false, true, false}},
		{"odd", []bool{false, true, false, true}},
		{"0+3", []bool{true, false, false, true}},
		{"1+9", []bool{false, true, false, false}}, // out-of-range index ignored
	} {
		got, err := tc.pattern.Rooms(4)
		if err != nil {
			t.Fatalf("%q: %v", tc.pattern, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%q: got %v, want %v", tc.pattern, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%q: got %v, want %v", tc.pattern, got, tc.want)
			}
		}
	}
}

// TestRunBuildingDeterministicAcrossWorkers: the campaign JSON is a function
// of the sweep alone, whether shards run serially or in parallel.
func TestRunBuildingDeterministicAcrossWorkers(t *testing.T) {
	sweep := BuildingSweep{
		Rooms:   []int{3},
		Mixes:   []Mix{"paper", "linux"},
		Secures: []SecurePattern{"even"},
		Attacks: []bool{false, true},
		Settle:  10 * time.Minute,
		Window:  10 * time.Minute,
	}
	run := func(workers int) []byte {
		res, err := RunBuilding(sweep, BuildingOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("building campaign diverged across worker counts: %d vs %d bytes", len(serial), len(parallel))
	}
}
