package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

// The pinned outputs. A change that alters a simulation output must re-record
// these with a stated reason, exactly like the repository's other goldens:
// the benchmark prints the new digest and every differing verdict.

//go:embed golden/digests.json
var digestsJSON []byte

//go:embed golden/attack-verdicts.txt
var verdictsText string

// pinnedDigests are the sha256 digests of each workload's deterministic
// report at seed 1 and the reference run length.
type pinnedDigests struct {
	Seed    int64             `json:"seed"`
	Seconds int               `json:"seconds"`
	Digests map[string]string `json:"digests"`
}

// goldenDigest returns the pinned digest for a workload run, or "" when the
// run's seed or length is not the pinned one.
func goldenDigest(workload string, seed int64, seconds int) (string, error) {
	var pd pinnedDigests
	if err := json.Unmarshal(digestsJSON, &pd); err != nil {
		return "", fmt.Errorf("golden/digests.json: %w", err)
	}
	if seed != pd.Seed || seconds != pd.Seconds {
		return "", nil
	}
	return pd.Digests[workload], nil
}

// goldenVerdicts parses the pinned attack verdict table: one
// "<case key>\t<verdict>" line per case of the standard sweep.
func goldenVerdicts() (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(verdictsText))
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, verdict, ok := strings.Cut(text, "\t")
		if !ok {
			return nil, fmt.Errorf("golden/attack-verdicts.txt:%d: want <case>\\t<verdict>", line)
		}
		out[key] = verdict
	}
	return out, sc.Err()
}
