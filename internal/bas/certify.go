package bas

import (
	"fmt"
	"sync"

	"mkbas/internal/aadl"
	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/polcheck"
)

// The certification table. A default deployment's policy artifact (the
// MINIX ACM policy, the seL4 CapDL spec, the hardened Linux DAC model) is a
// pure function of a few deploy inputs, so it is built, normalised into a
// polcheck.Graph and proven against ScenarioProperties once per process per
// distinct artifact. Every deployment of that artifact then shares the
// result: the pre-deploy gate reads the verdict and the online monitor reads
// the graph.
//
// The microkernel artifacts are compiled from one source, the embedded
// AADL model (aadl.TempControl), as the paper compiles each platform's
// policy from its model: aadl.GenerateACM and aadl.GenerateSyscalls make
// every MINIX policy, and aadl.GenerateCAmkES the components, interfaces
// and connections of every seL4 assembly.
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

// scenarioModel is the embedded model, parsed once per process.
var scenarioModel = sync.OnceValue(func() *aadl.Package {
	return must(aadl.Parse(aadl.TempControl))
})

// gatewaysOff lists the optional gateways a board leaves out of the model.
func gatewaysOff(bacnet, tenant bool) (omit []string) {
	if !bacnet {
		omit = append(omit, NameBACnetGateway)
	}
	if !tenant {
		omit = append(omit, NameTenantGateway)
	}
	return omit
}

// must unwraps a compile of the embedded model, which cannot fail unless
// the model itself is broken.
func must[T any](v T, err error) T {
	if err != nil {
		panic("bas: compiling the embedded scenario model: " + err.Error())
	}
	return v
}

// minixKey is every input that shapes a compiled MINIX policy.
type minixKey struct {
	bacnet, tenant bool
	forkQuota      int
}

// minixArtifact is a compiled MINIX policy and its certification.
type minixArtifact struct {
	policy *core.Policy
	certification
}

var (
	minixTable memo[minixKey, *minixArtifact]
	// minixCompiled maps each compiled policy's value (its sealed matrix
	// and grants) to its certification, so a deploy handed one through
	// DeployOptions.Policy reads the table instead of certifying again.
	minixCompiled sync.Map
)

// minixDefault returns the certified policy the model compiles to for a
// MINIX board with or without the optional gateways, the web interface's
// fork grant budgeted by forkQuota (core.QuotaUnlimited: the paper's
// policy).
func minixDefault(bacnet, tenant bool, forkQuota int) *minixArtifact {
	return minixTable.get(minixKey{bacnet, tenant, forkQuota}, func() *minixArtifact {
		pkg, omit := scenarioModel(), gatewaysOff(bacnet, tenant)
		grants := must(aadl.GenerateSyscalls(pkg, aadl.TempControlSystem, omit...))
		if forkQuota != core.QuotaUnlimited {
			// E8: the paper's proposed quota, on the web interface's fork.
			grants.GrantQuota(core.ACIDWebInterface, core.SysFork, forkQuota)
		}
		// Every board shares this policy sealed: its matrix and grants panic
		// on write.
		p := (&core.Policy{IPC: must(aadl.GenerateACM(pkg, aadl.TempControlSystem, omit...)), Syscalls: grants}).Seal()
		a := &minixArtifact{policy: p, certification: certify(polcheck.FromPolicy(p))}
		minixCompiled.Store(*p, a.certification)
		return a
	})
}

// MinixPolicy returns the policy the embedded model compiles to for a MINIX
// board with or without the optional gateways, the web interface's fork
// grant budgeted by forkQuota (core.QuotaUnlimited for the paper's policy, a
// budget for E8's). The matrix and grants are sealed and shared by every
// board that boots them; a deploy handed this policy as DeployOptions.Policy
// reads the certification the table made when it compiled it.
func MinixPolicy(bacnet, tenant bool, forkQuota int) *core.Policy {
	p := *minixDefault(bacnet, tenant, forkQuota).policy
	return &p
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

var sel4Topologies memo[bool, *aadl.CamkesTopology]

// sel4Compiled returns the CAmkES topology the model compiles to for an seL4
// board with or without the BACnet gateway, shared read-only by every
// assembly of that board.
func sel4Compiled(bacnet bool) *aadl.CamkesTopology {
	return sel4Topologies.get(bacnet, func() *aadl.CamkesTopology {
		return must(aadl.GenerateCAmkES(scenarioModel(), aadl.TempControlSystem, gatewaysOff(bacnet, false)...))
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
