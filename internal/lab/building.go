package lab

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/faultinject"
	"mkbas/internal/perf"
)

// marshalIndent is the package's canonical report rendering: indented JSON
// with a trailing newline.
func marshalIndent(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// The building campaign axis (experiment E11): instead of one board per
// shard, each shard is a whole multi-room building — rooms × platform mix ×
// secure-proxy coverage × attacker on/off. Shards stay fully independent
// (each building owns its bus, boards, and head-end), so the sharded runner
// and the merge-by-shard determinism contract carry over unchanged.

// Mix names a building's platform rotation. "paper" rotates the three
// headline platforms; "all" rotates every registered platform; a single
// platform name is a homogeneous building; names joined by '+' rotate in the
// given order (comma is the sweep grammar's value separator).
type Mix string

// Platforms expands the mix to the rotation building.Config consumes.
func (m Mix) Platforms() ([]bas.Platform, error) {
	switch m {
	case "paper":
		return bas.AllPlatforms(), nil
	case "all":
		return bas.KnownPlatforms(), nil
	}
	var out []bas.Platform
	for _, part := range strings.Split(string(m), "+") {
		p, err := bas.ParsePlatform(part)
		if err != nil {
			return nil, fmt.Errorf("lab: mix %q: %w", m, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// SecurePattern names which rooms sit behind the secure proxy: "none",
// "all", "even", "odd", or explicit room indices joined by '+' ("0+3+5").
type SecurePattern string

// Rooms expands the pattern for a building of n rooms.
func (s SecurePattern) Rooms(n int) ([]bool, error) {
	out := make([]bool, n)
	switch s {
	case "none", "":
		return nil, nil
	case "all":
		for i := range out {
			out[i] = true
		}
	case "even":
		for i := range out {
			out[i] = i%2 == 0
		}
	case "odd":
		for i := range out {
			out[i] = i%2 == 1
		}
	default:
		for _, part := range strings.Split(string(s), "+") {
			i, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || i < 0 {
				return nil, fmt.Errorf("lab: secure pattern %q: bad room index %q", s, part)
			}
			if i < n {
				out[i] = true
			}
		}
	}
	return out, nil
}

// BuildingSweep is a building-campaign: the cross product of room counts,
// platform mixes, secure-coverage patterns, and attacker on/off. Settle and
// Window apply to every case (they size virtual time, not the sweep).
type BuildingSweep struct {
	Rooms   []int           `json:"rooms"`
	Mixes   []Mix           `json:"mixes"`
	Secures []SecurePattern `json:"secures"`
	Attacks []bool          `json:"attacks"`
	// Monitors is the policy-monitor axis (E12): "off", "on", "demote".
	Monitors []string `json:"monitors,omitempty"`
	// BusFaults is the bus-level fault-plan axis (E15): builtin plan names,
	// "" (or "none") for the unfaulted baseline.
	BusFaults []string `json:"bus_faults,omitempty"`
	// Standbys is the standby head-end axis (E15).
	Standbys []bool `json:"standbys,omitempty"`
	// APIs is the tenant-API-tier axis (E16): attach the building-scale
	// occupant gateway with its deterministic per-round traffic.
	APIs   []bool        `json:"apis,omitempty"`
	Settle time.Duration `json:"settle,omitempty"`
	Window time.Duration `json:"window,omitempty"`
}

func (s BuildingSweep) withDefaults() BuildingSweep {
	if len(s.Rooms) == 0 {
		s.Rooms = []int{4}
	}
	if len(s.Mixes) == 0 {
		s.Mixes = []Mix{"paper"}
	}
	if len(s.Secures) == 0 {
		s.Secures = []SecurePattern{"even"}
	}
	if len(s.Attacks) == 0 {
		s.Attacks = []bool{true}
	}
	if len(s.Monitors) == 0 {
		s.Monitors = []string{MonitorOff}
	}
	if len(s.BusFaults) == 0 {
		s.BusFaults = []string{""}
	}
	if len(s.Standbys) == 0 {
		s.Standbys = []bool{false}
	}
	if len(s.APIs) == 0 {
		s.APIs = []bool{false}
	}
	return s
}

// Validate rejects bad axis values before any building boots.
func (s BuildingSweep) Validate() error {
	s = s.withDefaults()
	for _, n := range s.Rooms {
		if n <= 0 {
			return fmt.Errorf("lab: building needs at least one room, got %d", n)
		}
	}
	for _, m := range s.Mixes {
		if _, err := m.Platforms(); err != nil {
			return err
		}
	}
	for _, sp := range s.Secures {
		if _, err := sp.Rooms(1); err != nil {
			return err
		}
	}
	for _, m := range s.Monitors {
		switch m {
		case MonitorOff, MonitorOn, MonitorDemote:
		default:
			return fmt.Errorf("lab: unknown monitor mode %q (known: off, on, demote)", m)
		}
	}
	for _, plan := range s.BusFaults {
		if plan == "" {
			continue
		}
		if _, err := faultinject.Lookup(plan); err != nil {
			return err
		}
	}
	return nil
}

// BuildingCase is one fully specified building run.
type BuildingCase struct {
	Shard  int           `json:"shard"`
	Rooms  int           `json:"rooms"`
	Mix    Mix           `json:"mix"`
	Secure SecurePattern `json:"secure"`
	Attack bool          `json:"attack"`
	// Monitor is "" (off), MonitorOn, or MonitorDemote — kept empty for the
	// off case so pre-monitor campaign reports stay byte-identical.
	Monitor string `json:"monitor,omitempty"`
	// BusFaults and Standby are the resilience axes (E15), both zero for
	// pre-resilience campaigns so their reports stay byte-identical.
	BusFaults string `json:"bus_faults,omitempty"`
	Standby   bool   `json:"standby,omitempty"`
	// API attaches the tenant API tier (E16), zero for pre-API campaigns so
	// their reports stay byte-identical.
	API bool `json:"api,omitempty"`
}

// String renders the case compactly for logs.
func (c BuildingCase) String() string {
	s := fmt.Sprintf("%d: rooms=%d mix=%s secure=%s attack=%v", c.Shard, c.Rooms, c.Mix, c.Secure, c.Attack)
	if c.Monitor != "" && c.Monitor != MonitorOff {
		s += " monitor=" + c.Monitor
	}
	if c.BusFaults != "" {
		s += " busfaults=" + c.BusFaults
	}
	if c.Standby {
		s += " standby=true"
	}
	if c.API {
		s += " api=true"
	}
	return s
}

// Spec translates the case into an attack.BuildingSpec. Each case runs its
// rooms serially (Workers 1): the campaign's parallelism is across shards.
func (c BuildingCase) Spec(settle, window time.Duration) (attack.BuildingSpec, error) {
	mix, err := c.Mix.Platforms()
	if err != nil {
		return attack.BuildingSpec{}, err
	}
	secure, err := c.Secure.Rooms(c.Rooms)
	if err != nil {
		return attack.BuildingSpec{}, err
	}
	return attack.BuildingSpec{
		Rooms:     c.Rooms,
		Mix:       mix,
		Secure:    secure,
		Attack:    c.Attack,
		Settle:    settle,
		Window:    window,
		Workers:   1,
		Monitor:   c.Monitor == MonitorOn,
		Demote:    c.Monitor == MonitorDemote,
		BusFaults: c.BusFaults,
		Standby:   c.Standby,
		TenantAPI: c.API,
	}, nil
}

// Expand enumerates the cases in deterministic order: rooms, mix, secure,
// attack, monitor — outermost to innermost.
func (s BuildingSweep) Expand() []BuildingCase {
	s = s.withDefaults()
	var cases []BuildingCase
	for _, rooms := range s.Rooms {
		for _, mix := range s.Mixes {
			for _, secure := range s.Secures {
				for _, att := range s.Attacks {
					for _, mon := range s.Monitors {
						if mon == MonitorOff {
							mon = ""
						}
						for _, plan := range s.BusFaults {
							for _, standby := range s.Standbys {
								for _, api := range s.APIs {
									cases = append(cases, BuildingCase{
										Shard:     len(cases),
										Rooms:     rooms,
										Mix:       mix,
										Secure:    secure,
										Attack:    att,
										Monitor:   mon,
										BusFaults: plan,
										Standby:   standby,
										API:       api,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return cases
}

// ParseBuildingSweep parses the building sweep grammar, the same
// semicolon/comma shape as ParseSweep:
//
//	rooms=4,16;mix=paper,linux;secure=even,none;attack=both;settle=10m;window=20m
//
// attack accepts "on", "off", and "both"; settle and window take Go
// durations and apply to every case.
func ParseBuildingSweep(spec string) (BuildingSweep, error) {
	var s BuildingSweep
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		axis, values, ok := strings.Cut(clause, "=")
		if !ok {
			return BuildingSweep{}, fmt.Errorf("lab: building sweep clause %q is not axis=values", clause)
		}
		axis = strings.TrimSpace(axis)
		var vals []string
		for _, v := range strings.Split(values, ",") {
			if v = strings.TrimSpace(v); v != "" {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return BuildingSweep{}, fmt.Errorf("lab: building sweep axis %q has no values", axis)
		}
		switch axis {
		case "rooms":
			for _, v := range vals {
				n, err := strconv.Atoi(v)
				if err != nil {
					return BuildingSweep{}, fmt.Errorf("lab: rooms %q is not an integer", v)
				}
				s.Rooms = append(s.Rooms, n)
			}
		case "mix":
			for _, v := range vals {
				s.Mixes = append(s.Mixes, Mix(v))
			}
		case "secure":
			for _, v := range vals {
				s.Secures = append(s.Secures, SecurePattern(v))
			}
		case "attack":
			for _, v := range vals {
				switch v {
				case "on":
					s.Attacks = append(s.Attacks, true)
				case "off":
					s.Attacks = append(s.Attacks, false)
				case "both":
					s.Attacks = append(s.Attacks, false, true)
				default:
					return BuildingSweep{}, fmt.Errorf("lab: attack value %q (want on, off, or both)", v)
				}
			}
		case "monitor", "monitors":
			for _, v := range vals {
				if v == "all" {
					s.Monitors = append(s.Monitors, AllMonitors()...)
				} else {
					s.Monitors = append(s.Monitors, v)
				}
			}
		case "busfaults":
			for _, v := range vals {
				if v == "none" {
					v = ""
				}
				s.BusFaults = append(s.BusFaults, v)
			}
		case "standby":
			for _, v := range vals {
				switch v {
				case "on":
					s.Standbys = append(s.Standbys, true)
				case "off":
					s.Standbys = append(s.Standbys, false)
				case "both":
					s.Standbys = append(s.Standbys, false, true)
				default:
					return BuildingSweep{}, fmt.Errorf("lab: standby value %q (want on, off, or both)", v)
				}
			}
		case "api":
			for _, v := range vals {
				switch v {
				case "on":
					s.APIs = append(s.APIs, true)
				case "off":
					s.APIs = append(s.APIs, false)
				case "both":
					s.APIs = append(s.APIs, false, true)
				default:
					return BuildingSweep{}, fmt.Errorf("lab: api value %q (want on, off, or both)", v)
				}
			}
		case "settle", "window":
			if len(vals) != 1 {
				return BuildingSweep{}, fmt.Errorf("lab: %s takes one duration", axis)
			}
			d, err := time.ParseDuration(vals[0])
			if err != nil {
				return BuildingSweep{}, fmt.Errorf("lab: %s %q: %w", axis, vals[0], err)
			}
			if axis == "settle" {
				s.Settle = d
			} else {
				s.Window = d
			}
		default:
			return BuildingSweep{}, fmt.Errorf("lab: unknown building sweep axis %q (known: api, attack, busfaults, mix, monitor, rooms, secure, settle, standby, window)", axis)
		}
	}
	s.Rooms = dedupInts(s.Rooms)
	s.Mixes = dedup(s.Mixes)
	s.Secures = dedup(s.Secures)
	s.Attacks = dedup(s.Attacks)
	s.Monitors = dedup(s.Monitors)
	s.BusFaults = dedup(s.BusFaults)
	s.Standbys = dedup(s.Standbys)
	s.APIs = dedup(s.APIs)
	if err := s.Validate(); err != nil {
		return BuildingSweep{}, err
	}
	return s, nil
}

// BuildingShard is one building case's outcome, in shard position.
type BuildingShard struct {
	Case BuildingCase `json:"case"`
	// Alarm/Compromised summarise the rows for quick grepping; Report holds
	// the full per-room table.
	Alarm       bool                   `json:"alarm"`
	Compromised []int                  `json:"compromised"`
	Report      *attack.BuildingReport `json:"report"`
}

// BuildingResult is a completed building campaign; like Result, its JSON is
// a deterministic function of the sweep alone.
type BuildingResult struct {
	Sweep BuildingSweep   `json:"sweep"`
	Cases []BuildingShard `json:"cases"`
	// Workers and Elapsed describe this execution, not the experiment.
	Workers int           `json:"-"`
	Elapsed time.Duration `json:"-"`
}

// JSON renders the campaign as indented JSON with a trailing newline.
func (r *BuildingResult) JSON() ([]byte, error) {
	return marshalIndent(r)
}

// BuildingOptions configures a building campaign run.
type BuildingOptions struct {
	// Workers is the number of buildings in flight at once; zero means 1.
	// Within each building the rooms run serially.
	Workers int
	// Progress, when non-nil, receives one callback per finished case.
	Progress func(c BuildingCase, r *attack.BuildingReport)
	// Profiler attaches the host-side performance profiler; see
	// Options.Profiler. Building shards book into "lab.shard" too — the
	// phase names what the pool schedules, not what runs inside.
	Profiler *perf.Profiler
}

// RunBuilding executes every case of the building sweep on the shard pool
// (ForEachShard), with Run's merge-by-shard determinism.
func RunBuilding(sweep BuildingSweep, opts BuildingOptions) (*BuildingResult, error) {
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	sweep = sweep.withDefaults()
	cases := sweep.Expand()
	workers := max(opts.Workers, 1)
	start := time.Now()
	reports := make([]*attack.BuildingReport, len(cases))
	err := ForEachShard("lab", len(cases), workers, opts.Profiler, func(i int) error {
		c := cases[i]
		spec, err := c.Spec(sweep.Settle, sweep.Window)
		if err != nil {
			return err
		}
		spec.Profiler = opts.Profiler
		r, err := attack.ExecuteBuilding(spec)
		if err != nil {
			return fmt.Errorf("lab: building shard %s: %w", c, err)
		}
		reports[i] = r
		if opts.Progress != nil {
			opts.Progress(c, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &BuildingResult{
		Sweep:   sweep,
		Cases:   make([]BuildingShard, len(cases)),
		Workers: poolWidth(len(cases), workers),
		Elapsed: time.Since(start),
	}
	for i, c := range cases {
		res.Cases[i] = BuildingShard{
			Case:        c,
			Alarm:       reports[i].Alarm,
			Compromised: reports[i].Compromised(),
			Report:      reports[i],
		}
	}
	return res, nil
}
