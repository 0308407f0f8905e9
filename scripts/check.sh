#!/usr/bin/env sh
# Repo-wide gate: build, vet, race-clean tests, prove the scenario's
# security properties statically on every platform, smoke the E4 overhead
# benchmarks, and check that the observability report is byte-deterministic.
set -eux
cd "$(dirname "$0")/.."
go build ./...
# Formatting gate: gofmt -l prints offenders without failing, so fail on any
# output explicitly.
test -z "$(gofmt -l .)"
go vet ./...
go test -race ./...
# The lab and building runners are the repo's multi-goroutine hot paths,
# and the machine engine's coroutine discipline is what every board runs
# on; vet and race them explicitly (twice, for scheduling variety) so the
# parallel suites stay standing gates even if the global pass is narrowed.
go vet ./internal/machine ./internal/lab ./internal/building
go test -race -count=2 ./internal/machine ./internal/lab ./internal/building
go run ./cmd/polcheck -scenario tempcontrol
# Least-privilege lint: every static grant the scenario never exercises must
# be covered by the checked-in allowlist; unknown or stale entries fail. The
# audit runs under the tenant-gateway-extended matrix (-tenant), which is a
# strict superset of the default one, so a single strict pass covers both —
# stale entries still fail, keeping the default rows honest too.
go run ./cmd/polcheck -scenario tempcontrol -tenant -audit -strict -allow polcheck.allow >/dev/null
# E4 must at least run; perf comparisons happen out of band. One iteration is
# enough for the smoke — the bench bodies themselves assert invariants.
go test -run XXX -bench BenchmarkE4 -benchtime 1x .
# Determinism golden: two runs of the default MINIX scenario must produce
# byte-identical observability reports (virtual time only, no map order).
out1="$(mktemp)"; out2="$(mktemp)"
trap 'rm -f "$out1" "$out2"' EXIT
go run ./cmd/basmon -platform minix -json >"$out1"
go run ./cmd/basmon -platform minix -json >"$out2"
cmp "$out1" "$out2"
# Shard-merge determinism golden: the same campaign run serially and with 8
# workers must produce byte-identical merged JSON (DESIGN.md §9).
smoke='platforms=paper;actions=kill-controller;models=both'
go run ./cmd/baslab -sweep "$smoke" -workers 1 -json -q >"$out1"
go run ./cmd/baslab -sweep "$smoke" -workers 8 -json -q >"$out2"
cmp "$out1" "$out2"
# Perf-skeleton determinism golden (DESIGN.md §13): the untimed phase profile
# (phase set, ordering, per-phase counts) is a pure function of the campaign,
# so it must be byte-identical at any worker count.
go run ./cmd/baslab -sweep "$smoke" -workers 1 -q -perf -perf-timings=false -perf-json -perf-out "$out1" >/dev/null
go run ./cmd/baslab -sweep "$smoke" -workers 8 -q -perf -perf-timings=false -perf-json -perf-out "$out2" >/dev/null
cmp "$out1" "$out2"
# Scaling bench: record shards/sec at 1/2/4/8 workers; exits nonzero if any
# width's merged JSON deviates from the serial baseline. The bench sweep is
# deliberately much wider than the deepest worker pool (50 shards vs 8
# workers) so the curve measures steady-state scheduling, not pool drain.
bench='platforms=all;actions=all;models=both'
go run ./cmd/baslab -sweep "$bench" -bench 1,2,4,8 -bench-out BENCH_lab.json
# E10 chaos smoke: one fault plan through each platform's recovery path
# (MINIX RS, the seL4 monitor, the hardened-Linux supervisor).
go run ./cmd/basmon -platform minix -faults crash-sensor -duration 1h >/dev/null
go run ./cmd/basmon -platform sel4 -recovery -faults crash-sensor -duration 1h >/dev/null
go run ./cmd/basmon -platform linux-hardened -recovery -faults crash-sensor -duration 1h >/dev/null
# Fault-sweep determinism golden: injection, recovery, and MTTR accounting
# must be byte-identical between serial and 8-worker runs (DESIGN.md §10).
chaos='platforms=paper;actions=none'
go run ./cmd/baslab -sweep "$chaos" -faults crash-sensor,hang-sensor -workers 1 -json -q >"$out1"
go run ./cmd/baslab -sweep "$chaos" -faults crash-sensor,hang-sensor -workers 8 -json -q >"$out2"
cmp "$out1" "$out2"
# Chaos scaling bench: the same determinism bit across worker widths.
go run ./cmd/baslab -sweep "$chaos" -faults crash-sensor -bench 1,2,4,8 -bench-out BENCH_faults.json
# Building determinism golden (DESIGN.md §11): a 16-room mixed building under
# the lateral-movement attack, with one room's sensor crashed, must produce
# byte-identical reports whether boards step serially or 8 at a time.
bldg='-rooms 16 -mix paper -secure even -settle 10m -window 20m -faults 2=crash-sensor'
go run ./cmd/basbuilding $bldg -workers 1 -json >"$out1"
go run ./cmd/basbuilding $bldg -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# Building perf-skeleton golden: same contract as the lab one — counts per
# phase derive from rounds and rooms, never from the worker pool.
go run ./cmd/basbuilding $bldg -workers 1 -perf -perf-timings=false -perf-json -perf-out "$out1" >/dev/null
go run ./cmd/basbuilding $bldg -workers 8 -perf -perf-timings=false -perf-json -perf-out "$out2" >/dev/null
cmp "$out1" "$out2"
# E11 smoke: the per-room verdict table (legacy rooms COMPROMISED, secure
# rooms SECURE) and the no-attack baseline both run clean.
go run ./cmd/basbuilding -rooms 6 -settle 12m -window 20m >/dev/null
go run ./cmd/basbuilding -sweep 'rooms=4;mix=paper;secure=even,none;attack=both;settle=10m;window=10m' -json -q >/dev/null
# Building lockstep scaling bench: 64 boards in lockstep rounds; exits
# nonzero if any worker width's report deviates from the serial baseline.
go run ./cmd/basbuilding -rooms 64 -settle 10m -window 20m -bench 1,2,4,8 -bench-out BENCH_building.json
# E12 monitor smoke: the online policy monitor runs clean on every platform
# (zero drift on certified traffic is asserted by the unit tests).
go run ./cmd/basmon -platform minix -monitor -duration 30m >/dev/null
go run ./cmd/basmon -platform sel4 -monitor -duration 30m >/dev/null
go run ./cmd/basmon -platform linux -monitor -duration 30m >/dev/null
# E12 determinism golden: the monitored + demoting building (bus dial guard
# active) must stay byte-identical across worker counts.
e12='-rooms 6 -mix paper -secure even -settle 10m -window 15m -demote'
go run ./cmd/basbuilding $e12 -workers 1 -json >"$out1"
go run ./cmd/basbuilding $e12 -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# E15 resilience golden (DESIGN.md §15): the partitioned building with a
# standby head-end — bus faults adjudicated at the flush barrier, failover
# round derived from bus silence — must stay byte-identical at any worker
# count.
e15='-rooms 16 -attack=false -busfaults partition-failover -standby -window 90m'
go run ./cmd/basbuilding $e15 -workers 1 -json >"$out1"
go run ./cmd/basbuilding $e15 -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# E15 failover smoke: the standby's takeover is a pure function of virtual
# time — it must land on round 3976 (silence detection 90 rounds after the
# 65-minute head-end crash, on the 16-room stagger).
go run ./cmd/basbuilding $e15 >"$out1"
grep -q 'standby took over at round 3976' "$out1"
grep -q 'bus fault plan "partition-failover": 2 injected, 2 recovered, 0 unrecovered' "$out1"
# E16 tenant-API load-gen determinism golden (DESIGN.md §16): the merged
# million-request campaign report must be byte-identical whether the 64
# gateway shards run serially or across 8 workers.
go run ./cmd/basload -requests 200000 -workers 1 -json >"$out1"
go run ./cmd/basload -requests 200000 -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# E16 attack smoke: the stolen-manager-token replay must ride the certified
# path to COMPROMISED, and incident response (-demote) must turn the same
# attack into BLOCKED at session auth.
go run ./cmd/attacklab -actions api-token-replay -platforms minix3-acm -model root >"$out1"
grep -q 'COMPROMISED' "$out1"
go run ./cmd/attacklab -actions api-token-replay -platforms minix3-acm -model root -demote >"$out1"
grep -q 'BLOCKED' "$out1"
# E16 basmon integration smoke: tenant traffic surfaces per-route counters
# and latency histograms in the board report, byte-deterministically.
go run ./cmd/basmon -platform minix -api 2000 -json >"$out1"
go run ./cmd/basmon -platform minix -api 2000 -json >"$out2"
cmp "$out1" "$out2"
grep -q 'api_latency_room-status' "$out1"
# E16 building smoke: the building-scale tenant tier stays byte-identical
# across worker counts (gateway batches run at the round barrier).
e16b='-rooms 4 -settle 5m -window 10m -api'
go run ./cmd/basbuilding $e16b -workers 1 -json >"$out1"
go run ./cmd/basbuilding $e16b -workers 4 -json >"$out2"
cmp "$out1" "$out2"
# Tenant API scaling bench: requests/sec across worker widths; exits nonzero
# if any width's merged report deviates from the serial baseline.
go run ./cmd/basload -bench 1,2,4,8 -bench-out BENCH_api.json
# Bench guard: the four BENCH records re-measured above must not collapse
# below the checked-in baselines on board_steps_per_sec. The tolerance
# still absorbs CI jitter (0.4 = fail below 60% of baseline) but was
# tightened once the hot-path rebuild (DESIGN.md §14) made throughput
# worth defending; scripts/bench_compare.sh prints the percent-level
# deltas this guard deliberately ignores.
go run ./cmd/benchguard -tolerance 0.4
