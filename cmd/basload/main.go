// Command basload is the tenant API tier's deterministic load generator
// (experiment E15): a million simulated occupant/manager/vendor requests in
// virtual time against shard-local gateways, merged into one report whose
// bytes are identical at any worker count.
//
// Usage:
//
//	basload                                   # 1,000,000 requests, 64 shards
//	basload -requests 200000 -shards 16 -json
//	basload -workers 8                        # same bytes, less wall-clock
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"mkbas/internal/cli"
	"mkbas/internal/perf"
	"mkbas/internal/tenantapi/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "basload:", err)
		os.Exit(1)
	}
}

func run() error {
	requests := flag.Int("requests", 1_000_000, "total simulated requests across all shards")
	shards := flag.Int("shards", 64, "independent gateway shards (the determinism unit)")
	seed := flag.Uint64("seed", 0xE15, "campaign seed: drives principal, route, and value choices")
	var out cli.Output
	var pool cli.Pool
	out.Register(flag.CommandLine)
	pool.Register(flag.CommandLine)
	var prof perf.CLI
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	plan := loadgen.Plan{Seed: *seed, Requests: *requests, Shards: *shards}

	if err := prof.Start(); err != nil {
		return err
	}
	plan.Workers = pool.Workers
	plan.Profiler = prof.Profiler()
	rep, err := loadgen.Run(plan)
	if err != nil {
		return err
	}
	if err := prof.Finish(); err != nil {
		return err
	}
	if out.JSON {
		data, jerr := rep.JSON()
		if jerr != nil {
			return jerr
		}
		_, werr := os.Stdout.Write(data)
		return werr
	}
	printText(rep)
	return nil
}

func printText(rep *loadgen.Report) {
	fmt.Printf("tenant API load campaign: %d requests, %d shards, seed %#x\n",
		rep.Requests, rep.Plan.Shards, rep.Plan.Seed)
	fmt.Printf("  served %d (%.1f%%), backend setpoint writes %d\n",
		rep.Served, 100*float64(rep.Served)/float64(rep.Requests), rep.BackendWrites)
	fmt.Println("outcomes:")
	names := make([]string, 0, len(rep.Outcomes))
	for name := range rep.Outcomes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-14s %9d\n", name, rep.Outcomes[name])
	}
	fmt.Println("latency (virtual, per route):")
	for _, h := range rep.Histograms {
		if h.Count == 0 {
			continue
		}
		fmt.Printf("  %-24s n=%-9d p50=%6.2fms p95=%6.2fms p99=%6.2fms\n",
			h.Name, h.Count, float64(h.P50Ns)/1e6, float64(h.P95Ns)/1e6, float64(h.P99Ns)/1e6)
	}
	if len(rep.Mechanisms) > 0 {
		fmt.Print("denials mediated by:")
		for _, m := range rep.Mechanisms {
			fmt.Printf(" %s", m)
		}
		fmt.Println()
	}
}
