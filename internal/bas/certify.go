package bas

import (
	"fmt"
	"sync"

	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/polcheck"
)

// The certification table. A default deployment's policy artifact (the
// MINIX ACM policy, the seL4 CapDL spec, the hardened Linux DAC model) is a
// pure function of a few deploy inputs, so it is built, normalised into a
// polcheck.Graph and proven against ScenarioProperties once per process per
// distinct artifact, the way the paper compiles a platform's policy once
// from its model. Every deployment of that artifact then shares the result:
// the pre-deploy gate reads the verdict and the online monitor reads the
// graph.
//
// Shared means read-only. The table holds only values nothing writes after
// they are built: sealed policies, graphs, channel-name maps and verdicts.
// Everything a board mutates (kernel tables, quota ledgers, monitor subject
// states, the proxy's anti-replay state) is built per board. A
// caller-supplied DeployOptions.Policy never enters the table; it is
// certified on the spot by every deploy that boots it.

// certification is one artifact's certified graph and the pre-deploy gate's
// verdict on it (nil passes).
type certification struct {
	graph   *polcheck.Graph
	verdict error
}

// certify proves g against the scenario's contract.
func certify(g *polcheck.Graph) certification {
	return certification{graph: g, verdict: checkDeployPolicy(g)}
}

// memo builds one value per key, once per process. Each entry is built
// under its own sync.OnceValue, so concurrent deploys of one key (lab and
// building workers) build it once and all see the same value, while
// distinct keys build in parallel.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]func() V
}

// get returns k's value, calling build to make it if k is new. build must
// depend on nothing but k.
func (m *memo[K, V]) get(k K, build func() V) V {
	m.mu.Lock()
	entry, ok := m.entries[k]
	if !ok {
		if m.entries == nil {
			m.entries = make(map[K]func() V)
		}
		entry = sync.OnceValue(build)
		m.entries[k] = entry
	}
	m.mu.Unlock()
	return entry()
}

// minixKey is every input that shapes the default MINIX policy.
type minixKey struct{ bacnet, tenant bool }

// minixArtifact is a default MINIX policy and its certification.
type minixArtifact struct {
	policy *core.Policy
	certification
}

var minixTable memo[minixKey, *minixArtifact]

// minixDefault returns the certified default policy for a MINIX board with
// or without the optional gateway rows.
func minixDefault(bacnet, tenant bool) *minixArtifact {
	return minixTable.get(minixKey{bacnet, tenant}, func() *minixArtifact {
		p := core.ScenarioPolicyWithGateways(bacnet, tenant)
		if !p.Sealed() {
			// Every board shares this policy: only a sealed one, whose
			// matrix and grants panic on write, is safe to share.
			panic("bas: default MINIX policy is not sealed")
		}
		return &minixArtifact{policy: p, certification: certify(polcheck.FromPolicy(p))}
	})
}

// linuxKey is every input that shapes the hardened unique-account DAC model
// (linuxContractGraph): which optional gateway subjects join it.
type linuxKey struct{ gateway, tenant bool }

var linuxTable memo[linuxKey, certification]

// linuxContract returns the certified hardened DAC contract with the given
// gateway subjects. The hardened gate certifies the base contract,
// linuxContract(false, false); the monitor on either Linux configuration
// verifies against the contract matching the deployed gateways.
func linuxContract(gateway, tenant bool) certification {
	return linuxTable.get(linuxKey{gateway, tenant}, func() certification {
		return certify(linuxContractGraph(gateway, tenant))
	})
}

// sel4Artifact is the certification of one assembly structure's CapDL
// spec, with the kernel-to-spec channel names the monitor translates
// through. specErr is GenerateSpec's error; the other fields are unset when
// it is non-nil.
type sel4Artifact struct {
	channels map[string]string
	specErr  error
	certification
}

var sel4Table memo[string, *sel4Artifact]

// sel4Certified returns the certified capability distribution of
// assembly. The key is the assembly's Structure, which renders everything
// the spec and channel names are compiled from and no thread body, so
// attacker web bodies and controller parameters share an entry while any
// structural change gets its own.
func sel4Certified(assembly *camkes.Assembly) *sel4Artifact {
	return sel4Table.get(assembly.Structure(), func() *sel4Artifact {
		spec, err := camkes.GenerateSpec(assembly)
		if err != nil {
			return &sel4Artifact{specErr: fmt.Errorf("bas: generating capdl spec: %w", err)}
		}
		return &sel4Artifact{
			channels:      camkes.ChannelNames(assembly),
			certification: certify(polcheck.FromCapDL(spec)),
		}
	})
}
