#!/usr/bin/env sh
# Repo-wide gate: build, vet, race-clean tests, prove the scenario's
# security properties statically on every platform, smoke the E4 overhead
# benchmarks, and check that every report is byte-deterministic (serial vs
# 8 workers). Performance is judged by the repo benchmark, bash bench/run.sh.
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
# The vnet free lists and the bacnet buffers a poll reuses pass between room
# workers and the coordinator across the bus flush barrier, so their
# packages join the explicit pass. Concurrent deploys share the bas
# certification table, and MINIX boards grow their process tables while
# other boards boot, so those two packages race in the pass too.
go vet ./internal/machine ./internal/lab ./internal/building ./internal/vnet ./internal/bacnet
go test -race -count=2 ./internal/machine ./internal/lab ./internal/building ./internal/vnet ./internal/bacnet ./internal/bas ./internal/minix
# Fuzz smoke: the BACnet secure-frame opener is the first code a forged bus
# frame reaches, and the PDU decoder parses every frame a legacy room takes
# off the bus. Short runs from the checked-in seeds must find nothing.
go test -run '^$' -fuzz '^FuzzOpenFrame$' -fuzztime 10s ./internal/bacnet
go test -run '^$' -fuzz '^FuzzDecodePDU$' -fuzztime 10s ./internal/bacnet
# Value-level: arbitrary legacy PDUs through the BACnet gateway of all five
# platforms. An acknowledged setpoint must be in band, and every platform
# must read back the setpoint its controller holds, the Linux text path
# included.
go test -run '^$' -fuzz '^FuzzGatewayExchange$' -fuzztime 10s ./internal/bas
# The web UI's request parser is what every board exposes to the network:
# whatever the bytes and however they are chunked, it must parse alike.
go test -run '^$' -fuzz '^FuzzParser$' -fuzztime 10s ./internal/httpmini
# Operators load fault plans from JSON files: whatever the bytes, the plan
# parser must not panic, and an accepted plan must round-trip.
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 10s ./internal/faultinject
# The seL4 build's capability distribution is written and read back as
# CapDL text: the parser must not panic, and an accepted spec must
# round-trip through Render.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/capdl
# The last three text parsers: AADL models feed the policy compiler,
# property files feed bas policy -props, and sweep specs feed bas lab -sweep.
# Whatever the bytes, none may panic or allocate out of proportion to its
# input, and whatever they accept must go through the AADL generators and
# linter, or the sweep validator, without panicking.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/aadl
go test -run '^$' -fuzz '^FuzzParseProperties$' -fuzztime 10s ./internal/polcheck
go test -run '^$' -fuzz '^FuzzParseSweep$' -fuzztime 10s ./internal/lab
# Value-level: every status line, API body and setpoint echo formats its
# numbers with decfmt.AppendFixed, which must write strconv's bytes for any
# 64-bit pattern at either precision it handles.
go test -run '^$' -fuzz '^FuzzAppendFixed$' -fuzztime 10s ./internal/decfmt
go run ./cmd/bas policy -scenario tempcontrol
# Least-privilege lint: every static grant the scenario never exercises must
# be covered by the checked-in allowlist; unknown or stale entries fail. The
# audit runs under the tenant-gateway-extended matrix (-tenant), which is a
# strict superset of the default one, so a single strict pass covers both —
# stale entries still fail, keeping the default rows honest too.
go run ./cmd/bas policy -scenario tempcontrol -tenant -audit -strict -allow polcheck.allow >/dev/null
# E4 must at least run; perf comparisons happen out of band. One iteration is
# enough for the smoke — the bench bodies themselves assert invariants.
go test -run XXX -bench BenchmarkE4 -benchtime 1x .
# Deploy smoke: one default deploy per platform through the certification
# table.
go test -run '^$' -bench BenchmarkDeploy -benchtime 1x ./internal/bas
# Determinism golden: two runs of the default MINIX scenario must produce
# byte-identical observability reports (virtual time only, no map order).
out1="$(mktemp)"; out2="$(mktemp)"
trap 'rm -f "$out1" "$out2"' EXIT
go run ./cmd/bas mon -platform minix -json >"$out1"
go run ./cmd/bas mon -platform minix -json >"$out2"
cmp "$out1" "$out2"
# Chrome-export golden: the board's trace-event timeline (obs.EncodeChrome,
# the encoder the host-side -perf-trace shares) is virtual-time only, so two
# runs must produce byte-identical traces.
go run ./cmd/bas mon -platform minix -chrome - >"$out1"
go run ./cmd/bas mon -platform minix -chrome - >"$out2"
cmp "$out1" "$out2"
# Shard-merge determinism golden: the same campaign run serially and with 8
# workers must produce byte-identical merged JSON (DESIGN.md §9).
smoke='platforms=paper;actions=kill-controller;models=both'
go run ./cmd/bas lab -sweep "$smoke" -workers 1 -json -q >"$out1"
go run ./cmd/bas lab -sweep "$smoke" -workers 8 -json -q >"$out2"
cmp "$out1" "$out2"
# Perf-skeleton determinism golden (DESIGN.md §13): the untimed phase profile
# (phase set, ordering, per-phase counts) is a pure function of the campaign,
# so it must be byte-identical at any worker count.
go run ./cmd/bas lab -sweep "$smoke" -workers 1 -q -perf -perf-timings=false -perf-json -perf-out "$out1" >/dev/null
go run ./cmd/bas lab -sweep "$smoke" -workers 8 -q -perf -perf-timings=false -perf-json -perf-out "$out2" >/dev/null
cmp "$out1" "$out2"
# Full-matrix determinism golden: every platform x every action x both
# attacker models (50 shards, far wider than the 8-worker pool, so shards
# finish out of order) must merge to the same bytes serially and 8 wide.
full='platforms=all;actions=all;models=both'
go run ./cmd/bas lab -sweep "$full" -workers 1 -json -q >"$out1"
go run ./cmd/bas lab -sweep "$full" -workers 8 -json -q >"$out2"
cmp "$out1" "$out2"
# E10 chaos smoke: one fault plan through each platform's recovery path
# (MINIX RS, the seL4 monitor, the hardened-Linux supervisor).
go run ./cmd/bas mon -platform minix -faults crash-sensor -duration 1h >/dev/null
go run ./cmd/bas mon -platform sel4 -recovery -faults crash-sensor -duration 1h >/dev/null
go run ./cmd/bas mon -platform linux-hardened -recovery -faults crash-sensor -duration 1h >/dev/null
# Fault-sweep determinism golden: injection, recovery, and MTTR accounting
# must be byte-identical between serial and 8-worker runs (DESIGN.md §10).
chaos='platforms=paper;actions=none'
go run ./cmd/bas lab -sweep "$chaos" -faults crash-sensor,hang-sensor -workers 1 -json -q >"$out1"
go run ./cmd/bas lab -sweep "$chaos" -faults crash-sensor,hang-sensor -workers 8 -json -q >"$out2"
cmp "$out1" "$out2"
# Building determinism golden (DESIGN.md §11): a 16-room mixed building under
# the lateral-movement attack, with one room's sensor crashed, must produce
# byte-identical reports whether boards step serially or 8 at a time.
bldg='-rooms 16 -mix paper -secure even -settle 10m -window 20m -faults 2=crash-sensor'
go run ./cmd/bas building $bldg -workers 1 -json >"$out1"
go run ./cmd/bas building $bldg -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# The same 8-worker side on one P: the round pool never spins when Ps are
# short, so this keeps its park-only handoff in the gate.
GOMAXPROCS=1 go run ./cmd/bas building $bldg -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# Building perf-skeleton golden: same contract as the lab one — counts per
# phase derive from rounds and rooms, never from the worker pool.
go run ./cmd/bas building $bldg -workers 1 -perf -perf-timings=false -perf-json -perf-out "$out1" >/dev/null
go run ./cmd/bas building $bldg -workers 8 -perf -perf-timings=false -perf-json -perf-out "$out2" >/dev/null
cmp "$out1" "$out2"
# E11 smoke: the per-room verdict table (legacy rooms COMPROMISED, secure
# rooms SECURE) and the no-attack baseline both run clean.
go run ./cmd/bas building -rooms 6 -settle 12m -window 20m >/dev/null
go run ./cmd/bas building -sweep 'rooms=4;mix=paper;secure=even,none;attack=both;settle=10m;window=10m' -json -q >/dev/null
# 64-room lockstep golden: the widest building in the gate, 64 boards per
# round, must report the same bytes whether boards step serially or 8 at a
# time.
wide='-rooms 64 -settle 10m -window 20m'
go run ./cmd/bas building $wide -workers 1 -json >"$out1"
go run ./cmd/bas building $wide -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# E12 monitor smoke: the online policy monitor runs clean on every platform
# (zero drift on certified traffic is asserted by the unit tests).
go run ./cmd/bas mon -platform minix -monitor -duration 30m >/dev/null
go run ./cmd/bas mon -platform sel4 -monitor -duration 30m >/dev/null
go run ./cmd/bas mon -platform linux -monitor -duration 30m >/dev/null
# E12 determinism golden: the monitored + demoting building (bus dial guard
# active) must stay byte-identical across worker counts.
e12='-rooms 6 -mix paper -secure even -settle 10m -window 15m -demote'
go run ./cmd/bas building $e12 -workers 1 -json >"$out1"
go run ./cmd/bas building $e12 -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# E15 resilience golden (DESIGN.md §15): the partitioned building with a
# standby head-end — bus faults adjudicated at the flush barrier, failover
# round derived from bus silence — must stay byte-identical at any worker
# count.
e15='-rooms 16 -attack=false -busfaults partition-failover -standby -window 90m'
go run ./cmd/bas building $e15 -workers 1 -json >"$out1"
go run ./cmd/bas building $e15 -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# E15 failover smoke: the standby's takeover is a pure function of virtual
# time — it must land on round 3976 (silence detection 90 rounds after the
# 65-minute head-end crash, on the 16-room stagger).
go run ./cmd/bas building $e15 >"$out1"
grep -q 'standby took over at round 3976' "$out1"
grep -q 'bus fault plan "partition-failover": 2 injected, 2 recovered, 0 unrecovered' "$out1"
# E16 tenant-API load-gen determinism golden (DESIGN.md §16): the merged
# million-request campaign report must be byte-identical whether the 64
# gateway shards run serially or across 8 workers.
go run ./cmd/bas load -requests 200000 -workers 1 -json >"$out1"
go run ./cmd/bas load -requests 200000 -workers 8 -json >"$out2"
cmp "$out1" "$out2"
# E16 attack smoke: the stolen-manager-token replay must ride the certified
# path to COMPROMISED, and incident response (-demote) must turn the same
# attack into BLOCKED at session auth.
go run ./cmd/bas attack -actions api-token-replay -platforms minix3-acm -model root >"$out1"
grep -q 'COMPROMISED' "$out1"
go run ./cmd/bas attack -actions api-token-replay -platforms minix3-acm -model root -demote >"$out1"
grep -q 'BLOCKED' "$out1"
# E16 bas mon integration smoke: tenant traffic surfaces per-route counters
# and latency histograms in the board report, byte-deterministically.
go run ./cmd/bas mon -platform minix -api-requests 2000 -json >"$out1"
go run ./cmd/bas mon -platform minix -api-requests 2000 -json >"$out2"
cmp "$out1" "$out2"
grep -q 'api_latency_room-status' "$out1"
# E16 building smoke: the building-scale tenant tier stays byte-identical
# across worker counts (gateway batches run at the round barrier).
e16b='-rooms 4 -settle 5m -window 10m -api'
go run ./cmd/bas building $e16b -workers 1 -json >"$out1"
go run ./cmd/bas building $e16b -workers 4 -json >"$out2"
cmp "$out1" "$out2"
