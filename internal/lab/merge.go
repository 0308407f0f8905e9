package lab

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"mkbas/internal/machine"
	"mkbas/internal/obs"
)

// VerdictCount is one row of the campaign's verdict tally.
type VerdictCount struct {
	Verdict string `json:"verdict"`
	Count   int    `json:"count"`
}

// Aggregate is the deterministic cross-shard merge: every collection is
// keyed and sorted, never ordered by completion.
type Aggregate struct {
	Cases int `json:"cases"`
	// Verdicts tallies E1 matrix cells across all shards, sorted by verdict.
	Verdicts []VerdictCount `json:"verdicts"`
	// Attempts/Successes/Denials sum the attackers' operation tallies.
	Attempts  int `json:"attempts"`
	Successes int `json:"successes"`
	Denials   int `json:"denials"`
	// Counters merges every board's metric counters by name.
	Counters []obs.CounterSnap `json:"counters"`
	// EventTotals merges every board's security-event totals by
	// (kind, mechanism, denied).
	EventTotals []obs.EventTotal `json:"event_totals"`
	// Mechanisms is the union of mediation mechanisms that denied at least
	// one operation anywhere in the campaign.
	Mechanisms []obs.Mechanism `json:"mechanisms"`
	// IPCUsages merges every board's IPC usage log by (src, dst, label).
	IPCUsages []machine.IPCUsageCount `json:"ipc_usages"`
	// Fault-campaign tallies (E10), summed across shards that armed a fault
	// plan; all omitted when the sweep injected nothing.
	FaultsInjected    int `json:"faults_injected,omitempty"`
	FaultsRecovered   int `json:"faults_recovered,omitempty"`
	FaultsUnrecovered int `json:"faults_unrecovered,omitempty"`
	// Restarts counts processes reincarnated by recovery machinery anywhere
	// in the campaign.
	Restarts int `json:"restarts,omitempty"`
	// MTTR aggregates (nanoseconds) over every recovered fault.
	MTTRCount int64 `json:"mttr_count,omitempty"`
	MTTRSumNs int64 `json:"mttr_sum_ns,omitempty"`
	MTTRMaxNs int64 `json:"mttr_max_ns,omitempty"`
	// ViolationsDuringFault counts safety violations that fell inside fault
	// effect windows.
	ViolationsDuringFault int `json:"violations_during_fault,omitempty"`
	// Policy-monitor tallies (E12), summed across shards that attached the
	// online monitor; all omitted when the monitor axis was off everywhere.
	MonitorObserved int64 `json:"monitor_observed,omitempty"`
	PolicyDrifts    int64 `json:"policy_drifts,omitempty"`
	OriginDrifts    int64 `json:"origin_drifts,omitempty"`
	Demotions       int64 `json:"demotions,omitempty"`
}

// aggregate folds shard results, which arrive already in shard order.
func aggregate(cases []ShardResult) Aggregate {
	agg := Aggregate{Cases: len(cases)}
	verdicts := make(map[string]int)
	counterSets := make([][]obs.CounterSnap, 0, len(cases))
	eventSets := make([][]obs.EventTotal, 0, len(cases))
	mechSets := make([][]obs.Mechanism, 0, len(cases))
	ipcSets := make([][]machine.IPCUsageCount, 0, len(cases))
	for _, sr := range cases {
		r := sr.Report
		verdicts[sr.Verdict]++
		agg.Attempts += r.Attempts
		agg.Successes += r.Successes
		agg.Denials += r.Denials
		if r.Obs != nil {
			counterSets = append(counterSets, r.Obs.Counters)
			eventSets = append(eventSets, r.Obs.EventTotals)
		}
		mechSets = append(mechSets, r.Mechanisms)
		ipcSets = append(ipcSets, r.IPCUsages)
		agg.Restarts += r.Restarts
		agg.ViolationsDuringFault += r.ViolationsDuringFault
		if ms := r.MonitorStats; ms != nil {
			agg.MonitorObserved += ms.Observed
			agg.PolicyDrifts += ms.PolicyDrifts
			agg.OriginDrifts += ms.OriginDrifts
			agg.Demotions += ms.Demotions
		}
		if fr := r.FaultReport; fr != nil {
			agg.FaultsInjected += fr.Injected
			agg.FaultsRecovered += fr.Recovered
			agg.FaultsUnrecovered += fr.Unrecovered
			agg.MTTRCount += fr.MTTRCount
			agg.MTTRSumNs += fr.MTTRSumNs
			if fr.MTTRMaxNs > agg.MTTRMaxNs {
				agg.MTTRMaxNs = fr.MTTRMaxNs
			}
		}
	}
	for v, n := range verdicts {
		agg.Verdicts = append(agg.Verdicts, VerdictCount{Verdict: v, Count: n})
	}
	sort.Slice(agg.Verdicts, func(i, j int) bool { return agg.Verdicts[i].Verdict < agg.Verdicts[j].Verdict })
	agg.Counters = obs.MergeCounters(counterSets...)
	agg.EventTotals = obs.MergeEventTotals(eventSets...)
	agg.Mechanisms = obs.MergeMechanisms(mechSets...)
	agg.IPCUsages = machine.MergeUsages(ipcSets...)
	return agg
}

// JSON renders the campaign as indented JSON with a trailing newline —
// byte-identical across worker counts (the determinism contract).
func (r *Result) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Text renders the campaign as a human-readable summary: the per-shard
// verdict table followed by the merged tallies.
func (r *Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== campaign: %d cases, %d workers ==\n", len(r.Cases), r.Workers)
	for _, sr := range r.Cases {
		note := ""
		if blocked := sr.Report.BlockedBy(); blocked != "" {
			note = " [" + blocked + "]"
		}
		fmt.Fprintf(&b, "  %-58s %s%s\n", sr.Case, sr.Verdict, note)
	}
	fmt.Fprintf(&b, "verdicts:\n")
	for _, v := range r.Merged.Verdicts {
		fmt.Fprintf(&b, "  %-24s %d\n", v.Verdict, v.Count)
	}
	fmt.Fprintf(&b, "operations: %d attempted, %d accepted, %d denied\n",
		r.Merged.Attempts, r.Merged.Successes, r.Merged.Denials)
	if r.Merged.FaultsInjected > 0 {
		fmt.Fprintf(&b, "faults: %d injected, %d recovered, %d unrecovered, %d restarts\n",
			r.Merged.FaultsInjected, r.Merged.FaultsRecovered, r.Merged.FaultsUnrecovered, r.Merged.Restarts)
		if r.Merged.MTTRCount > 0 {
			mean := time.Duration(r.Merged.MTTRSumNs / r.Merged.MTTRCount)
			fmt.Fprintf(&b, "MTTR: mean %s, max %s; violations during fault windows: %d\n",
				mean, time.Duration(r.Merged.MTTRMaxNs), r.Merged.ViolationsDuringFault)
		} else {
			fmt.Fprintf(&b, "MTTR: none recovered; violations during fault windows: %d\n",
				r.Merged.ViolationsDuringFault)
		}
	}
	if r.Merged.MonitorObserved > 0 {
		fmt.Fprintf(&b, "policy monitor: %d deliveries observed, %d policy drifts, %d origin drifts, %d demotions\n",
			r.Merged.MonitorObserved, r.Merged.PolicyDrifts, r.Merged.OriginDrifts, r.Merged.Demotions)
	}
	if len(r.Merged.Mechanisms) > 0 {
		parts := make([]string, len(r.Merged.Mechanisms))
		for i, m := range r.Merged.Mechanisms {
			parts[i] = string(m)
		}
		fmt.Fprintf(&b, "denying mechanisms: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "merged security-event totals (%d kinds):\n", len(r.Merged.EventTotals))
	for _, t := range r.Merged.EventTotals {
		verdict := "allowed"
		if t.Denied {
			verdict = "DENIED"
		}
		fmt.Fprintf(&b, "  %-18s by %-14s %-8s %d\n", t.Kind, t.Mechanism, verdict, t.Count)
	}
	fmt.Fprintf(&b, "merged IPC usage rows: %d\n", len(r.Merged.IPCUsages))
	return b.String()
}
