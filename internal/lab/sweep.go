// Package lab is the sharded experiment campaign runner: it expands a
// parameter sweep — platforms × attacker models × attack actions × plant
// variants × policy ablations — into an ordered list of fully independent
// cases, boots each case on its own virtual board across a worker pool, and
// deterministically merges the per-shard results into one aggregate report.
//
// The determinism contract (DESIGN §9): each board is single-threaded and
// seeded, so a case's result depends only on its Case value; the merge is
// keyed by shard index — the case's position in the deterministic expansion
// order — never by completion order. The merged report's bytes are therefore
// identical regardless of worker count or scheduling.
package lab

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/faultinject"
)

// Model selects the attacker model from Section IV-D: a compromised web
// interface process, optionally escalated to root.
type Model string

// The paper's two attacker models.
const (
	ModelUser Model = "user"
	ModelRoot Model = "root"
)

// AllModels lists both attacker models, weakest first.
func AllModels() []Model { return []Model{ModelUser, ModelRoot} }

// Plant names a plant-parameter variant of the default scenario. Variants
// stress the control loop differently, probing whether a platform's attack
// outcome is robust to the physics rather than an artifact of one room.
type Plant string

// Plant variants.
const (
	// PlantDefault is the testbed room: 18 °C start, 15 °C ambient.
	PlantDefault Plant = "default"
	// PlantColdSnap drops the ambient to 2 °C, so losing the heater hurts
	// fast — attacks that suppress heating compromise physics sooner.
	PlantColdSnap Plant = "cold-snap"
	// PlantNoisySensor adds 0.15 °C sensor read noise, exercising the
	// controller's dead band and the spoofing attack's believability.
	PlantNoisySensor Plant = "noisy-sensor"
	// PlantDrafty triples the leak rate (poor insulation), shrinking the
	// margin between heater capacity and loss.
	PlantDrafty Plant = "drafty"
)

// AllPlants lists every plant variant, default first.
func AllPlants() []Plant {
	return []Plant{PlantDefault, PlantColdSnap, PlantNoisySensor, PlantDrafty}
}

// Scenario builds the scenario configuration for a plant variant.
func (p Plant) Scenario() (bas.ScenarioConfig, error) {
	cfg := bas.DefaultScenario()
	switch p {
	case PlantDefault:
	case PlantColdSnap:
		cfg.Plant.Ambient = 2
	case PlantNoisySensor:
		cfg.Plant.SensorNoise = 0.15
	case PlantDrafty:
		cfg.Plant.LeakRate = 3e-3
	default:
		return bas.ScenarioConfig{}, fmt.Errorf("lab: unknown plant variant %q", p)
	}
	return cfg, nil
}

// Sweep is a parameter campaign. Empty fields default to the paper's E1
// axes: the three headline platforms, all actions, the user model, the
// default plant, no quota ablation.
type Sweep struct {
	Platforms []bas.Platform  `json:"platforms"`
	Actions   []attack.Action `json:"actions"`
	Models    []Model         `json:"models"`
	Plants    []Plant         `json:"plants"`
	// Quotas are fork-quota ablations (E8). A quota applies only on MINIX
	// platforms, where the PM policy enforces it; on every other platform
	// the axis collapses to a single unquotaed case rather than running
	// identical boards per quota value.
	Quotas []int `json:"quotas"`
	// Faults are builtin faultinject plan names (E10 chaos axis). "none"
	// (the default) arms nothing; any other plan also enables the optional
	// recovery machinery so the case measures recovery, not its absence by
	// configuration.
	Faults []string `json:"faults,omitempty"`
	// Monitors is the online policy-monitor axis (E12): "off" (default),
	// "on" (observe-only drift detection), "demote" (observe plus origin
	// demotion of the compromised subject at attack start).
	Monitors []string `json:"monitors,omitempty"`
}

// Policy-monitor axis values.
const (
	MonitorOff    = "off"
	MonitorOn     = "on"
	MonitorDemote = "demote"
)

// AllMonitors lists the monitor axis values, weakest first.
func AllMonitors() []string { return []string{MonitorOff, MonitorOn, MonitorDemote} }

// Case is one fully specified experiment: a single board, a single attack.
type Case struct {
	// Shard is the case's position in the sweep's deterministic expansion
	// order — the merge key.
	Shard     int           `json:"shard"`
	Platform  bas.Platform  `json:"platform"`
	Action    attack.Action `json:"action"`
	Model     Model         `json:"model"`
	Plant     Plant         `json:"plant"`
	ForkQuota int           `json:"fork_quota,omitempty"`
	Faults    string        `json:"faults,omitempty"`
	// Monitor is "" (off), MonitorOn, or MonitorDemote — kept empty for the
	// off case so pre-monitor campaign reports stay byte-identical.
	Monitor string `json:"monitor,omitempty"`
}

// chaosCase reports whether the case arms a fault plan.
func (c Case) chaosCase() bool { return c.Faults != "" && c.Faults != faultPlanNone }

// Spec translates the case into an attack spec.
func (c Case) Spec() attack.Spec {
	spec := attack.Spec{
		Platform:  c.Platform,
		Action:    c.Action,
		Root:      c.Model == ModelRoot,
		ForkQuota: c.ForkQuota,
	}
	if attack.IsAPIAction(c.Action) {
		// The API attacker is outside the building: fork quotas and fault
		// plans parameterise the board-side attacker and do not apply.
		spec.ForkQuota = 0
		switch c.Monitor {
		case MonitorOn:
			spec.Monitor = true
		case MonitorDemote:
			spec.Demote = true
		}
		return spec
	}
	if c.chaosCase() {
		spec.FaultPlan = c.Faults
		// A chaos case measures the platform's recovery response, so the
		// optional machinery (seL4 monitor, hardened-Linux supervisor) is on.
		// Plain Linux still ignores it — that absence is E10's baseline.
		spec.Recovery = true
	}
	switch c.Monitor {
	case MonitorOn:
		spec.Monitor = true
	case MonitorDemote:
		spec.Demote = true
	}
	return spec
}

// String renders the case compactly for logs: "7: sel4/user spoof-sensor
// plant=default".
func (c Case) String() string {
	s := fmt.Sprintf("%d: %s/%s %s plant=%s", c.Shard, c.Platform, c.Model, c.Action, c.Plant)
	if c.ForkQuota > 0 {
		s += fmt.Sprintf(" quota=%d", c.ForkQuota)
	}
	if c.chaosCase() {
		s += " faults=" + c.Faults
	}
	if c.Monitor != "" && c.Monitor != MonitorOff {
		s += " monitor=" + c.Monitor
	}
	return s
}

// faultPlanNone is the no-op fault plan name, the faults axis default.
const faultPlanNone = "none"

func minixPlatform(p bas.Platform) bool {
	return p == bas.PlatformMinix || p == bas.PlatformMinixVanilla
}

// withDefaults fills empty axes.
func (s Sweep) withDefaults() Sweep {
	if len(s.Platforms) == 0 {
		s.Platforms = bas.AllPlatforms()
	}
	if len(s.Actions) == 0 {
		s.Actions = attack.AllActions()
	}
	if len(s.Models) == 0 {
		s.Models = []Model{ModelUser}
	}
	if len(s.Plants) == 0 {
		s.Plants = []Plant{PlantDefault}
	}
	if len(s.Quotas) == 0 {
		s.Quotas = []int{0}
	}
	if len(s.Faults) == 0 {
		s.Faults = []string{faultPlanNone}
	}
	if len(s.Monitors) == 0 {
		s.Monitors = []string{MonitorOff}
	}
	return s
}

// Validate rejects unknown axis values before any board boots, so a bad
// sweep fails in microseconds instead of at shard N.
func (s Sweep) Validate() error {
	s = s.withDefaults()
	known := make(map[bas.Platform]bool)
	for _, p := range bas.KnownPlatforms() {
		known[p] = true
	}
	for _, p := range s.Platforms {
		if !known[p] {
			return fmt.Errorf("lab: unknown platform %q", p)
		}
	}
	actions := make(map[attack.Action]bool)
	for _, a := range attack.AllActions() {
		actions[a] = true
	}
	for _, a := range attack.AllAPIActions() {
		actions[a] = true
	}
	actions[attack.ActionNone] = true
	for _, a := range s.Actions {
		if !actions[a] {
			return fmt.Errorf("lab: unknown action %q", a)
		}
	}
	for _, m := range s.Models {
		if m != ModelUser && m != ModelRoot {
			return fmt.Errorf("lab: unknown attacker model %q", m)
		}
	}
	for _, p := range s.Plants {
		if _, err := p.Scenario(); err != nil {
			return err
		}
	}
	for _, q := range s.Quotas {
		if q < 0 {
			return fmt.Errorf("lab: negative fork quota %d", q)
		}
	}
	for _, f := range s.Faults {
		if _, err := faultinject.Lookup(f); err != nil {
			return fmt.Errorf("lab: %w", err)
		}
	}
	for _, m := range s.Monitors {
		switch m {
		case MonitorOff, MonitorOn, MonitorDemote:
		default:
			return fmt.Errorf("lab: unknown monitor mode %q (known: off, on, demote)", m)
		}
	}
	return nil
}

// Expand enumerates the sweep's cases in deterministic order: platform,
// model, action, plant, quota, fault plan, monitor mode — outermost to
// innermost, each axis in the order given. Shard indices are assigned by
// position. Quota values beyond the first apply only on MINIX platforms (the
// only backends that enforce them); elsewhere the quota axis contributes one
// unquotaed case.
func (s Sweep) Expand() []Case {
	s = s.withDefaults()
	var cases []Case
	for _, platform := range s.Platforms {
		quotas := s.Quotas
		if !minixPlatform(platform) {
			quotas = []int{0}
		}
		for _, model := range s.Models {
			for _, action := range s.Actions {
				actionQuotas, actionFaults := quotas, s.Faults
				if attack.IsAPIAction(action) {
					// API cases take neither axis; collapse both so the sweep
					// does not enumerate identical shards.
					actionQuotas, actionFaults = []int{0}, []string{faultPlanNone}
				}
				for _, pl := range s.Plants {
					for _, quota := range actionQuotas {
						for _, faults := range actionFaults {
							for _, mon := range s.Monitors {
								if mon == MonitorOff {
									mon = ""
								}
								cases = append(cases, Case{
									Shard:     len(cases),
									Platform:  platform,
									Action:    action,
									Model:     model,
									Plant:     pl,
									ForkQuota: quota,
									Faults:    faults,
									Monitor:   mon,
								})
							}
						}
					}
				}
			}
		}
	}
	return cases
}

// ParseSweep parses the bas lab sweep grammar: semicolon-separated
// `axis=value[,value...]` clauses, e.g.
//
//	platforms=paper;actions=all;models=both;plants=default;quotas=0,8
//
// Axis keywords: platforms accepts "paper" (the three headline systems) and
// "all" (every registered platform), and resolves other names with
// bas.ParsePlatform; actions accepts "all" (the board
// attacks) and "api" (the tenant-tier attack family); plants accepts "all";
// models accepts "both". Unknown axes and values are rejected.
func ParseSweep(spec string) (Sweep, error) {
	var s Sweep
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
			return Sweep{}, fmt.Errorf("lab: sweep clause %q is not axis=values", clause)
		}
		axis = strings.TrimSpace(axis)
		var vals []string
		for _, v := range strings.Split(values, ",") {
			if v = strings.TrimSpace(v); v != "" {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return Sweep{}, fmt.Errorf("lab: sweep axis %q has no values", axis)
		}
		switch axis {
		case "platforms":
			for _, v := range vals {
				switch v {
				case "paper":
					s.Platforms = append(s.Platforms, bas.AllPlatforms()...)
				case "all":
					s.Platforms = append(s.Platforms, bas.KnownPlatforms()...)
				default:
					p, err := bas.ParsePlatform(v)
					if err != nil {
						return Sweep{}, fmt.Errorf("lab: %w", err)
					}
					s.Platforms = append(s.Platforms, p)
				}
			}
		case "actions":
			for _, v := range vals {
				switch v {
				case "all":
					s.Actions = append(s.Actions, attack.AllActions()...)
				case "api":
					s.Actions = append(s.Actions, attack.AllAPIActions()...)
				default:
					s.Actions = append(s.Actions, attack.Action(v))
				}
			}
		case "models":
			for _, v := range vals {
				if v == "both" {
					s.Models = append(s.Models, AllModels()...)
				} else {
					s.Models = append(s.Models, Model(v))
				}
			}
		case "plants":
			for _, v := range vals {
				if v == "all" {
					s.Plants = append(s.Plants, AllPlants()...)
				} else {
					s.Plants = append(s.Plants, Plant(v))
				}
			}
		case "quotas":
			for _, v := range vals {
				q, err := strconv.Atoi(v)
				if err != nil {
					return Sweep{}, fmt.Errorf("lab: quota %q is not an integer", v)
				}
				s.Quotas = append(s.Quotas, q)
			}
		case "faults":
			for _, v := range vals {
				if v == "all" {
					s.Faults = append(s.Faults, faultinject.Names()...)
				} else {
					s.Faults = append(s.Faults, v)
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
		default:
			return Sweep{}, fmt.Errorf("lab: unknown sweep axis %q (known: actions, faults, models, monitor, plants, platforms, quotas)", axis)
		}
	}
	s.Platforms = dedup(s.Platforms)
	s.Actions = dedup(s.Actions)
	s.Models = dedup(s.Models)
	s.Plants = dedup(s.Plants)
	s.Quotas = dedupInts(s.Quotas)
	s.Faults = dedup(s.Faults)
	s.Monitors = dedup(s.Monitors)
	if err := s.Validate(); err != nil {
		return Sweep{}, err
	}
	return s, nil
}

// dedup removes repeated values, keeping first-occurrence order — "paper"
// plus an explicit platform must not run the platform twice.
func dedup[T comparable](in []T) []T {
	seen := make(map[T]bool, len(in))
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func dedupInts(in []int) []int {
	out := dedup(in)
	sort.Ints(out)
	return out
}
