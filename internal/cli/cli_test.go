package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/lab"
)

func TestBundlesRegisterCanonicalFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var out Output
	var pool Pool
	var guard Guard
	out.Register(fs)
	pool.Register(fs)
	guard.Register(fs)
	for _, name := range []string{"json", "q", "workers", "bench", "bench-out", "monitor", "demote", "recovery"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-json", "-workers", "3", "-bench", "1, 2,4", "-demote"}); err != nil {
		t.Fatal(err)
	}
	if !out.JSON || pool.Workers != 3 || !guard.Demote {
		t.Fatalf("parsed values: %+v %+v %+v", out, pool, guard)
	}
	counts, err := pool.BenchCounts()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("BenchCounts = %v, want %v", counts, want)
	}
	if !guard.MonitorOn() {
		t.Error("-demote must imply the monitor")
	}
}

func TestBenchCountsRejectsBadInput(t *testing.T) {
	for _, bad := range []string{"0", "-1", "x", "1,,2", "1,2,zero"} {
		p := Pool{Bench: bad}
		if _, err := p.BenchCounts(); err == nil {
			t.Errorf("BenchCounts(%q) accepted", bad)
		}
	}
	p := Pool{}
	if counts, err := p.BenchCounts(); err != nil || counts != nil {
		t.Errorf("empty bench spec: counts=%v err=%v, want nil,nil", counts, err)
	}
}

func TestParsePlatform(t *testing.T) {
	cases := map[string]bas.Platform{
		"minix":          bas.PlatformMinix,
		"MINIX":          bas.PlatformMinix,
		"minix3-acm":     bas.PlatformMinix,
		"minix-vanilla":  bas.PlatformMinixVanilla,
		"minix3-vanilla": bas.PlatformMinixVanilla,
		"sel4":           bas.PlatformSel4,
		"linux":          bas.PlatformLinux,
		"linux-hardened": bas.PlatformLinuxHardened,
	}
	for in, want := range cases {
		got, err := ParsePlatform(in)
		if err != nil || got != want {
			t.Errorf("ParsePlatform(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePlatform("plan9"); err == nil {
		t.Error("unknown platform accepted")
	}
}

// TestWriteBenchReportRejectsDivergence: a bench whose output differed at
// one worker width is written out, then reported as a determinism error.
func TestWriteBenchReportRejectsDivergence(t *testing.T) {
	rep, err := lab.RunBench("t", []int{1, 2}, 1, func(w int) (lab.BenchRun, error) {
		return lab.BenchRun{Out: []byte{byte(w)}, Elapsed: time.Millisecond, Workers: w, Shards: 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	err = WriteBenchReport(rep, path, "shards/s")
	if err == nil || !strings.Contains(err.Error(), "determinism violated") {
		t.Fatalf("WriteBenchReport error = %v, want the determinism violation", err)
	}
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("divergent report not written: %v", serr)
	}
}
