package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/reports.sha256 from the current code")

// raceEnabled is set in a -race build (race_test.go).
var raceEnabled bool

// pinnedReports are the reports whose bytes are pinned across commits: the
// determinism goldens of scripts/check.sh (which compare two runs of one
// commit) plus the static reports. Each name is one line of
// testdata/reports.sha256.
var pinnedReports = []struct {
	name string
	args []string
}{
	{"mon-json", []string{"mon", "-platform", "minix", "-json"}},
	{"mon-chrome", []string{"mon", "-platform", "minix", "-chrome", "-"}},
	{"mon-api", []string{"mon", "-platform", "minix", "-api-requests", "2000", "-json"}},
	{"lab-smoke", []string{"lab", "-sweep", "platforms=paper;actions=kill-controller;models=both", "-workers", "2", "-json", "-q"}},
	{"lab-full", []string{"lab", "-sweep", "platforms=all;actions=all;models=both", "-workers", "2", "-json", "-q"}},
	{"lab-chaos", []string{"lab", "-sweep", "platforms=all;actions=none;faults=all", "-workers", "2", "-json", "-q"}},
	{"building-16", []string{"building", "-rooms", "16", "-mix", "paper", "-secure", "even", "-settle", "10m", "-window", "20m", "-faults", "2=crash-sensor", "-workers", "2", "-json"}},
	{"building-e12", []string{"building", "-rooms", "6", "-mix", "paper", "-secure", "even", "-settle", "10m", "-window", "15m", "-demote", "-workers", "2", "-json"}},
	{"building-e15", []string{"building", "-rooms", "16", "-attack=false", "-busfaults", "partition-failover", "-standby", "-window", "90m", "-workers", "2", "-json"}},
	{"building-e16", []string{"building", "-rooms", "4", "-settle", "5m", "-window", "10m", "-api", "-workers", "2", "-json"}},
	{"building-busfaults", []string{"building", "-sweep", "rooms=4;attack=off;busfaults=bus-partition,bus-drop,bus-delay,bus-dup,headend-kill,partition-failover;standby=on;window=60m", "-workers", "2", "-json", "-q"}},
	{"load", []string{"load", "-requests", "200000", "-workers", "1", "-json"}},
	{"attack-token-replay", []string{"attack", "-actions", "api-token-replay", "-platforms", "minix3-acm", "-model", "root"}},
	{"attack-token-replay-demote", []string{"attack", "-actions", "api-token-replay", "-platforms", "minix3-acm", "-model", "root", "-demote"}},
	{"policy", []string{"policy", "-scenario", "tempcontrol"}},
	{"aadl-acm", []string{"aadl", "-emit", "acm", "../../internal/aadl/tempcontrol.aadl"}},
	{"aadl-c", []string{"aadl", "-emit", "c", "../../internal/aadl/tempcontrol.aadl"}},
	{"aadl-camkes", []string{"aadl", "-emit", "camkes", "../../internal/aadl/tempcontrol.aadl"}},
}

// runCaptured runs one bas command in-process and returns what it wrote to
// standard output.
func runCaptured(t *testing.T, args []string) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	code := run(args, io.Discard)
	os.Stdout = saved
	if code != 0 {
		t.Fatalf("bas %s exited %d", strings.Join(args, " "), code)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReportPins runs every pinned report and compares the SHA-256 of its
// bytes with testdata/reports.sha256. A report that changes on purpose is
// re-pinned with -update, and the changed lines are a report change to
// explain.
//
// The pins check bytes, not synchronisation, and the race detector slows
// the 18 reports about 25-fold, so a -race build skips them; the packages
// that run them concurrently race in their own tests.
func TestReportPins(t *testing.T) {
	if raceEnabled {
		t.Skip("report pins check bytes; run them without -race")
	}
	var b strings.Builder
	for _, r := range pinnedReports {
		fmt.Fprintf(&b, "%s %x\n", r.name, sha256.Sum256(runCaptured(t, r.args)))
	}
	path := filepath.Join("testdata", "reports.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("pinned %d reports, ran %d:\n%s", len(wantLines), len(gotLines), b.String())
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("report moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
