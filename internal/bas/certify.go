package bas

import (
	"sync"
	"time"

	"mkbas/internal/aadl"
	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/machine"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
)

// The image table. A deploy splits into two parts. The image is what the
// declarative phase compiles from a few deploy inputs, the deploy's shape:
// the policy artifact (the MINIX ACM policy, the seL4 CAmkES image with its
// CapDL spec, the Linux DAC policy), that artifact normalised into a
// polcheck.Graph and proven against ScenarioProperties, and the online
// monitor's static edge index over the graph. It is built once per process
// per shape and never written again. The board is everything the execution
// phase mutates, built per deploy: kernel tables, capability slots, quota
// ledgers, monitor origin labels and counters, the proxy's anti-replay
// state. Every board of a shape shares the shape's image: the pre-deploy
// gate reads its verdict, the builder installs from its artifact and the
// monitor reads its index.
//
// Every artifact is compiled from one source, the embedded AADL model
// (aadl.TempControl), as the paper compiles each platform's policy from
// its model: aadl.GenerateACM and aadl.GenerateSyscalls make every MINIX
// policy, aadl.GenerateCAmkES the components, interfaces and connections
// of every seL4 assembly, and aadl.GenerateDAC the accounts, queue owners
// and queue modes of every Linux board. Each booted process's ac_id,
// priority, devices and monitor origin come from the same model.
//
// A caller-supplied DeployOptions.Policy never enters the table; it is
// certified on the spot by every deploy that boots it.

// image is a deploy shape's certified graph, the pre-deploy gate's verdict
// on it (nil passes) and the monitor's static edge index over the graph.
// Each platform's image adds the artifact its boards boot.
type image struct {
	graph   *polcheck.Graph
	verdict error
	index   *monitor.Index
}

// newImage certifies g against the scenario's contract and indexes it for
// the monitor, every subject at its model origin.
func newImage(g *polcheck.Graph, idx monitor.IndexOptions) image {
	idx.Origins = scenarioModel().origins
	return image{graph: g, verdict: checkDeployPolicy(g), index: monitor.NewIndex(g, idx)}
}

// memo builds one value per key, once per process. Each entry is built
// under its own sync.OnceValue, so concurrent deploys of one key (lab and
// building workers) build it once and all see the same value, while
// distinct keys build in parallel.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]func() V
}

// get returns k's value, calling build(k) to make it if k is new. build
// must depend on nothing but k. Builders are package-level functions, so a
// lookup of a built key allocates nothing.
func (m *memo[K, V]) get(k K, build func(K) V) V {
	m.mu.Lock()
	entry, ok := m.entries[k]
	if !ok {
		if m.entries == nil {
			m.entries = make(map[K]func() V)
		}
		entry = sync.OnceValue(func() V { return build(k) })
		m.entries[k] = entry
	}
	m.mu.Unlock()
	return entry()
}

// procFacts is what the model fixes about one booted process: the ac_id
// its ACM row is compiled for, its priority on every kernel, and the room
// devices it may touch, shared by every board and never written.
type procFacts struct {
	acid     core.ACID
	priority int
	devices  []machine.DeviceID
}

// modelDevices binds the model's device names to the room's bus IDs: wire
// detail, as linuxPortQueues is (alarm-led is not an AADL identifier).
var modelDevices = map[string]machine.DeviceID{
	"tempsensor": plant.DevTempSensor,
	"heater":     plant.DevHeater,
	"alarm":      plant.DevAlarm,
}

// scenarioModel is the embedded model, parsed once per process, with each
// process's boot facts and monitor origin by name.
var scenarioModel = sync.OnceValue(func() (m struct {
	pkg     *aadl.Package
	procs   map[string]procFacts
	origins map[string]monitor.Origin
}) {
	m.pkg = must(aadl.Parse(aadl.TempControl))
	m.procs, m.origins = make(map[string]procFacts), make(map[string]monitor.Origin)
	sys, _ := m.pkg.System(aadl.TempControlSystem)
	for _, sub := range sys.Subcomponents {
		proc, _ := m.pkg.Process(sub.ProcessType)
		f := procFacts{acid: core.ACID(proc.ACID()), priority: proc.Priority()}
		for _, name := range proc.Devices() {
			f.devices = append(f.devices, modelDevices[name])
		}
		m.procs[sub.Name] = f
		for o := monitor.OriginUntrusted; o <= monitor.OriginBoot; o++ {
			if o.String() == proc.Origin() {
				m.origins[sub.Name] = o
			}
		}
	}
	return m
})

// procOf returns the named model process's boot facts.
func procOf(name string) procFacts { return scenarioModel().procs[name] }

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

// minixImage is a compiled MINIX policy and its image.
type minixImage struct {
	policy *core.Policy
	image
}

var (
	minixTable memo[minixKey, *minixImage]
	// minixCompiled maps each compiled policy's value (its sealed matrix
	// and grants) to its image, so a deploy handed one through
	// DeployOptions.Policy reads the table instead of certifying again.
	minixCompiled sync.Map
)

// minixDefault returns the image of the policy the model compiles to for a
// MINIX board with or without the optional gateways, the web interface's
// fork grant budgeted by forkQuota (core.QuotaUnlimited: the paper's
// policy).
func minixDefault(bacnet, tenant bool, forkQuota int) *minixImage {
	return minixTable.get(minixKey{bacnet, tenant, forkQuota}, buildMinixImage)
}

func buildMinixImage(k minixKey) *minixImage {
	pkg, omit := scenarioModel().pkg, gatewaysOff(k.bacnet, k.tenant)
	grants := must(aadl.GenerateSyscalls(pkg, aadl.TempControlSystem, omit...))
	if k.forkQuota != core.QuotaUnlimited {
		// E8: the paper's proposed quota, on the web interface's fork.
		grants.GrantQuota(procOf(NameWebInterface).acid, core.SysFork, k.forkQuota)
	}
	// Every board shares this policy sealed: its matrix and grants panic on
	// write.
	p := (&core.Policy{IPC: must(aadl.GenerateACM(pkg, aadl.TempControlSystem, omit...)), Syscalls: grants}).Seal()
	a := &minixImage{policy: p, image: newImage(polcheck.FromPolicy(p), monitor.IndexOptions{})}
	minixCompiled.Store(*p, a)
	return a
}

// MinixPolicy returns the policy the embedded model compiles to for a MINIX
// board with or without the optional gateways, the web interface's fork
// grant budgeted by forkQuota (core.QuotaUnlimited for the paper's policy, a
// budget for E8's). The matrix and grants are sealed and shared by every
// board that boots them; a deploy handed this policy as DeployOptions.Policy
// boots from the image the table made when it compiled it.
func MinixPolicy(bacnet, tenant bool, forkQuota int) *core.Policy {
	p := *minixDefault(bacnet, tenant, forkQuota).policy
	return &p
}

// linuxKey is every input that shapes a Linux board's DAC policy: which
// optional gateways join the model.
type linuxKey struct{ bacnet, tenant bool }

// linuxImage is the DAC policy the model compiles to for a Linux board in
// both account layouts, and the image of the hardened one, the contract.
// The hardened gate certifies that contract, and the monitor on either
// Linux configuration verifies against it: the same-account default
// enforces no per-process policy to mirror, so the monitor checks the
// intended least-privilege shape instead, which is how it flags a
// compromised web process doing what same-account DAC cannot forbid
// (writing /heater-cmd directly).
type linuxImage struct {
	dac map[bool]*linuxDAC // keyed by hardened
	image
}

var linuxTable memo[linuxKey, *linuxImage]

// linuxDefault returns the image of a Linux board with or without the
// optional gateways.
func linuxDefault(bacnet, tenant bool) *linuxImage {
	return linuxTable.get(linuxKey{bacnet, tenant}, buildLinuxImage)
}

func buildLinuxImage(k linuxKey) *linuxImage {
	pkg, omit := scenarioModel().pkg, gatewaysOff(k.bacnet, k.tenant)
	same := must(aadl.GenerateDAC(pkg, aadl.TempControlSystem, omit...)).Under(baseUID, baseGID)
	// Unique accounts cannot be reached through fork, so the hardened
	// deployment spawns each process itself and boots no loader.
	hardened := bindLinuxDAC(must(aadl.GenerateDAC(pkg, aadl.TempControlSystem, append(omit, NameScenario)...)))
	return &linuxImage{
		dac:   map[bool]*linuxDAC{true: hardened, false: bindLinuxDAC(same)},
		image: newImage(polcheck.FromDAC(&hardened.model), monitor.IndexOptions{}),
	}
}

// sel4Key is every input that shapes a scenario assembly's structure: the
// BACnet gateway's component, and the controller's control thread that
// runs the staleness watchdog. Thread bodies, attacker code and controller
// parameters are not part of it.
type sel4Key struct{ bacnet, watchdog bool }

// sel4Image is an seL4 deploy shape's image: the camkes.Image compiled
// from its assembly structure (the CapDL spec, what creates each object
// and thread, the channel names) beside the graph, verdict and index.
type sel4Image struct {
	camkes *camkes.Image
	image
}

var sel4Table memo[sel4Key, *sel4Image]

// sel4Default returns the image every seL4 board of shape k boots from.
func sel4Default(k sel4Key) *sel4Image {
	return sel4Table.get(k, buildSel4Image)
}

func buildSel4Image(k sel4Key) *sel4Image {
	cfg := DefaultScenario()
	cfg.Controller.StalenessWindow = 0
	if k.watchdog {
		cfg.Controller.StalenessWindow = time.Second
	}
	var gateway func(*camkes.Runtime)
	if k.bacnet {
		gateway = func(*camkes.Runtime) {}
	}
	img := must(camkes.Compile(scenarioAssembly(cfg, nil, gateway)))
	// Recorded traffic uses kernel names (threads "comp" / "comp.iface",
	// endpoints "comp.iface") while the spec graph uses CapDL names:
	// CapDLSubjectOf collapses threads to components and the image's
	// channel names translate the IPC objects.
	return &sel4Image{camkes: img, image: newImage(polcheck.FromCapDL(img.Spec()), monitor.IndexOptions{
		SubjectOf:    polcheck.CapDLSubjectOf,
		ChannelNames: img.ChannelNames(),
	})}
}

var sel4Topologies memo[bool, *aadl.CamkesTopology]

// sel4Compiled returns the CAmkES topology the model compiles to for an seL4
// board with or without the BACnet gateway, shared read-only by every
// assembly of that board.
func sel4Compiled(bacnet bool) *aadl.CamkesTopology {
	return sel4Topologies.get(bacnet, buildSel4Topology)
}

func buildSel4Topology(bacnet bool) *aadl.CamkesTopology {
	return must(aadl.GenerateCAmkES(scenarioModel().pkg, aadl.TempControlSystem, gatewaysOff(bacnet, false)...))
}
