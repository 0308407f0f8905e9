package bas

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mkbas/internal/camkes"
	"mkbas/internal/core"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
)

// renderGraph writes out everything a graph holds, in a fixed order: its
// nodes, each node's flow edges with labels and origin, and every kill
// grant. Two graphs that render alike answer every query alike.
func renderGraph(g *polcheck.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform %s\n", g.Platform)
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "node %s\n", n)
		for _, e := range g.FlowsFrom(n) {
			fmt.Fprintf(&b, "  -> %s %q %s\n", e.To, e.Labels, e.Origin)
		}
	}
	subjects := g.Subjects()
	for _, src := range subjects {
		for _, dst := range subjects {
			if origin, ok := g.CanKill(src, dst); ok {
				fmt.Fprintf(&b, "kill %s %s %s\n", src, dst, origin)
			}
		}
	}
	return b.String()
}

// overbroadPolicy is the default MINIX policy plus a grant that breaks the
// scenario's contract: the web interface may command the heater.
func overbroadPolicy() *core.Policy {
	bad := MinixPolicy(false, false, core.QuotaUnlimited)
	ipc := bad.IPC.Clone()
	ipc.Allow(procOf(NameWebInterface).acid, procOf(NameHeaterAct).acid, core.MsgHeaterCmd)
	bad.IPC = ipc.Seal()
	return bad
}

func deployOrFatal(t *testing.T, p Platform, cfg ScenarioConfig, opts DeployOptions) *Deployment {
	t.Helper()
	tb := NewTestbed(cfg)
	t.Cleanup(tb.Machine.Shutdown)
	dep, err := Deploy(p, tb, cfg, opts)
	if err != nil {
		t.Fatalf("Deploy(%s): %v", p, err)
	}
	return dep
}

// TestCustomPolicyGatedAfterTableFilled: once default deploys have filled
// the table, a caller-supplied MINIX policy that breaks the contract is
// still certified on the spot and refused, whatever the other options; the
// table never answers for a policy it did not build.
func TestCustomPolicyGatedAfterTableFilled(t *testing.T) {
	cfg := DefaultScenario()
	variants := []DeployOptions{
		{},
		{Monitor: true},
		{BACnet: BACnetOptions{Enabled: true}, TenantAPI: true, Monitor: true},
	}
	for _, opts := range variants {
		deployOrFatal(t, PlatformMinix, cfg, opts) // fills the entry for opts
		opts.Policy = overbroadPolicy()
		tb := NewTestbed(cfg)
		_, err := Deploy(PlatformMinix, tb, cfg, opts)
		tb.Machine.Shutdown()
		if err == nil {
			t.Fatalf("opts %+v: the gate passed an over-broad custom policy", opts)
		}
		if !strings.Contains(err.Error(), "deny_path(webInterface, heaterActProc)") {
			t.Fatalf("gate error should name the violated property: %v", err)
		}
	}

	// Skipping the gate boots the custom policy, and the monitor verifies
	// against that policy's own graph, not the default's.
	bad := overbroadPolicy()
	dep := deployOrFatal(t, PlatformMinix, cfg, DeployOptions{Policy: bad, SkipPolicyCheck: true, Monitor: true})
	got := dep.graph
	if got == minixDefault(false, false, core.QuotaUnlimited).graph {
		t.Fatal("a custom policy's monitor got the default policy's graph")
	}
	if renderGraph(got) != renderGraph(polcheck.FromPolicy(bad)) {
		t.Fatal("the monitor's graph is not the custom policy's")
	}
}

// TestDefaultDeploysShareCertification: two default deploys of a platform
// verify against one graph, the very one the table's entry holds and whose
// verdict the gate reads. A second build of the entry would hand out a
// second graph.
func TestDefaultDeploysShareCertification(t *testing.T) {
	cfg := DefaultScenario()
	table := map[Platform]func() *image{
		PlatformMinix:         func() *image { return &minixDefault(false, false, core.QuotaUnlimited).image },
		PlatformMinixVanilla:  func() *image { return &minixDefault(false, false, core.QuotaUnlimited).image },
		PlatformSel4:          func() *image { return &sel4Default(sel4Key{watchdog: true}).image },
		PlatformLinux:         func() *image { return &linuxDefault(false, false).image },
		PlatformLinuxHardened: func() *image { return &linuxDefault(false, false).image },
	}
	for _, p := range KnownPlatforms() {
		first := deployOrFatal(t, p, cfg, DeployOptions{Monitor: true}).graph
		second := deployOrFatal(t, p, cfg, DeployOptions{Monitor: true}).graph
		if first == nil || first != second {
			t.Fatalf("%s: two deploys verify against graphs %p and %p, want one shared graph", p, first, second)
		}
		entry := table[p]()
		if entry.graph != first {
			t.Fatalf("%s: deploys verify against %p, the table holds %p", p, first, entry.graph)
		}
		if entry.verdict != nil {
			t.Fatalf("%s: default artifact fails the gate: %v", p, entry.verdict)
		}
		if again := table[p](); again.graph != entry.graph {
			t.Fatalf("%s: the table built its entry twice", p)
		}
	}
	// The hardened gate certifies the shape it deploys: a board with
	// gateways passes the gate on, and is monitored against, its own
	// shape's entry.
	for _, bacnet := range []bool{false, true} {
		for _, tenant := range []bool{false, true} {
			dep := deployOrFatal(t, PlatformLinuxHardened, cfg, DeployOptions{Monitor: true, TenantAPI: tenant, BACnet: BACnetOptions{Enabled: bacnet}})
			entry := linuxDefault(bacnet, tenant)
			if dep.graph != entry.graph {
				t.Fatalf("linux-hardened bacnet=%v tenant=%v: the board does not verify against its shape's entry", bacnet, tenant)
			}
			if entry.verdict != nil {
				t.Fatalf("linux-hardened bacnet=%v tenant=%v: the shape fails the gate: %v", bacnet, tenant, entry.verdict)
			}
		}
	}
}

// TestTableMatchesFreshArtifacts guards the keys: for every input tuple the
// table's graph and verdict are those of an artifact built fresh from the
// same inputs. For seL4 the fresh artifact is the spec of the booted
// board's own assembly, so a structural input missing from the key would
// show here.
func TestTableMatchesFreshArtifacts(t *testing.T) {
	same := func(what string, c *image, fresh *polcheck.Graph) {
		t.Helper()
		if renderGraph(c.graph) != renderGraph(fresh) {
			t.Fatalf("%s: table graph differs from a fresh build:\n%s\nfresh:\n%s", what, renderGraph(c.graph), renderGraph(fresh))
		}
		if got, want := fmt.Sprint(c.verdict), fmt.Sprint(checkDeployPolicy(fresh)); got != want {
			t.Fatalf("%s: table verdict %q, fresh verdict %q", what, got, want)
		}
	}
	for _, bacnet := range []bool{false, true} {
		for _, tenant := range []bool{false, true} {
			what := fmt.Sprintf("minix bacnet=%v tenant=%v", bacnet, tenant)
			a := minixDefault(bacnet, tenant, core.QuotaUnlimited)
			same(what, &a.image, polcheck.FromPolicy(a.policy))
			if renderGraph(polcheck.FromPolicy(a.policy)) != renderGraph(a.graph) {
				t.Fatalf("%s: the shared policy is not the certified one", what)
			}
			linux := linuxDefault(bacnet, tenant)
			what = fmt.Sprintf("linux bacnet=%v tenant=%v", bacnet, tenant)
			same(what, &linux.image, buildLinuxImage(linuxKey{bacnet, tenant}).graph)
			// The hardened gate certifies the deployed shape: the DAC
			// model a hardened board of that shape boots.
			same(what+" hardened gate", &linux.image, polcheck.FromDAC(&linux.dac[true].model))
		}
	}
	same("linux-hardened base gate", &linuxDefault(false, false).image, polcheck.FromDAC(LinuxScenarioDAC(true, false)))

	// Every seL4 key: the shared spec a board installed renders as a fresh
	// GenerateSpec of that board's own assembly, so no structural input is
	// missing from the key.
	attacker := func(rt *camkes.Runtime) { rt.Sleep(time.Hour) }
	gateway := func(rt *camkes.Runtime) { rt.Sleep(time.Hour) }
	for _, window := range []time.Duration{0, DefaultScenario().Controller.StalenessWindow} {
		for _, bacnet := range []bool{false, true} {
			for _, web := range []func(*camkes.Runtime){nil, attacker} {
				cfg := DefaultScenario()
				cfg.Controller.StalenessWindow = window
				what := fmt.Sprintf("sel4 window=%v bacnet=%v attacker=%v", window, bacnet, web != nil)
				dep := deployOrFatal(t, PlatformSel4, cfg, DeployOptions{
					Monitor: true, Sel4Web: web, BACnet: BACnetOptions{Enabled: bacnet},
				})
				var gw func(*camkes.Runtime)
				if bacnet {
					gw = gateway
				}
				fresh, err := camkes.GenerateSpec(scenarioAssembly(cfg, web, gw))
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sys := dep.Sel4
				if sys.Spec() != sel4Default(sel4Key{bacnet: bacnet, watchdog: window > 0}).camkes.Spec() {
					t.Fatalf("%s: the board did not install its shape's shared spec", what)
				}
				if got, want := sys.Spec().Render(), fresh.Render(); got != want {
					t.Fatalf("%s: shared spec differs from the board's own assembly:\n%s\nfresh:\n%s", what, got, want)
				}
				same(what, &image{graph: dep.graph}, polcheck.FromCapDL(fresh))
			}
		}
	}
}

// TestCompiledPolicyDeploysFromTable: a compiled policy handed to Deploy
// (E8's quota variant) boots under the table's certification, its quota in
// the key, while a copy with a replaced matrix is certified afresh.
func TestCompiledPolicyDeploysFromTable(t *testing.T) {
	cfg := DefaultScenario()
	a := minixDefault(false, false, 5)
	if r := a.policy.Syscalls.Rule(procOf(NameWebInterface).acid, core.SysFork); !r.Allowed || r.Quota != 5 {
		t.Fatalf("web fork rule = %+v, want a quota of 5", r)
	}
	if a == minixDefault(false, false, core.QuotaUnlimited) || a != minixDefault(false, false, 5) {
		t.Fatal("the fork quota is not part of the table key")
	}
	dep := deployOrFatal(t, PlatformMinix, cfg, DeployOptions{Policy: MinixPolicy(false, false, 5), Monitor: true})
	if dep.graph != a.graph {
		t.Fatal("a compiled policy was certified again on deploy")
	}
	copied := MinixPolicy(false, false, 5)
	copied.IPC = copied.IPC.Clone().Seal()
	dep = deployOrFatal(t, PlatformMinix, cfg, DeployOptions{Policy: copied, Monitor: true})
	if dep.graph == a.graph {
		t.Fatal("a policy with a replaced matrix read the table's certification")
	}
}

// TestConcurrentDeploysShareTable boots every platform from 8 goroutines at
// once, over option sets that hit every table and several entries of each,
// so first builds race with lookups. Every board runs the monitor over its
// shape's shared index and demotes its sensor driver mid-run, so a write
// to shared state would show. Run under -race.
func TestConcurrentDeploysShareTable(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, p := range KnownPlatforms() {
				cfg := DefaultScenario()
				cfg.Seed = int64(w + 1)
				opts := DeployOptions{
					Monitor:   true,
					TenantAPI: w%3 == 0,
					BACnet:    BACnetOptions{Enabled: w%2 == 1},
				}
				tb := NewTestbed(cfg)
				dep, err := Deploy(p, tb, cfg, opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d: Deploy(%s): %w", w, p, err)
					tb.Machine.Shutdown()
					return
				}
				dep.Run(3 * time.Minute)
				mon := dep.PolicyMonitor()
				demoted := mon.Demote(NameTempSensor, monitor.OriginWeb)
				dep.Run(2 * time.Minute)
				alive := dep.ControllerAlive()
				st := mon.Stats()
				tb.Machine.Shutdown()
				switch {
				case !alive:
					errs <- fmt.Errorf("worker %d: %s controller died", w, p)
				case !demoted || st.OriginDrifts == 0:
					errs <- fmt.Errorf("worker %d: %s: demoted=%v, stats %+v, want the sensor's edges to drift", w, p, demoted, st)
				default:
					continue
				}
				return
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBoardsShareImageReadOnly boots two boards of each platform from one
// image and demotes the sensor driver on the first: the second board's
// origin labels, its Observe verdicts and its resolved edges must not
// change.
func TestBoardsShareImageReadOnly(t *testing.T) {
	cfg := DefaultScenario()
	for _, p := range KnownPlatforms() {
		a := deployOrFatal(t, p, cfg, DeployOptions{Monitor: true})
		b := deployOrFatal(t, p, cfg, DeployOptions{Monitor: true})
		if a.graph != b.graph {
			t.Fatalf("%s: the two boards do not share one image", p)
		}
		monA, monB := a.PolicyMonitor(), b.PolicyMonitor()
		// The sensor's sample delivery, as each kernel records it.
		edge := [3]string{NameTempSensor, NameTempControl, fmt.Sprintf("mt%d", core.MsgSensorData)}
		switch p {
		case PlatformSel4:
			edge = [3]string{NameTempSensor, NameTempControl + "." + IfaceSensorIn, "send"}
		case PlatformLinux, PlatformLinuxHardened:
			edge = [3]string{NameTempSensor, QSensorData, "send"}
		}
		refA, refB := monA.Edge(edge[0], edge[1], edge[2]), monB.Edge(edge[0], edge[1], edge[2])
		if !refA.Live() || !refB.Live() {
			t.Fatalf("%s: the sensor's edge %q is not certified", p, edge)
		}
		a.Run(time.Minute)
		b.Run(time.Minute)
		if !monA.Demote(NameTempSensor, monitor.OriginWeb) {
			t.Fatalf("%s: Demote refused", p)
		}
		a.Run(time.Minute)
		b.Run(time.Minute)
		if o, _ := monB.CurrentOrigin(NameTempSensor); o != monitor.OriginBoot {
			t.Fatalf("%s: second board's sensor origin = %v, want boot", p, o)
		}
		if refA.Live() || !refB.Live() {
			t.Fatalf("%s: Live after demotion: first %v, second %v; want only the first dead", p, refA.Live(), refB.Live())
		}
		if st := monA.Stats(); st.OriginDrifts == 0 {
			t.Fatalf("%s: the demoted board drifted nothing: %+v", p, st)
		}
		if st := monB.Stats(); st.OriginDrifts != 0 || st.PolicyDrifts != 0 || st.Demotions != 0 || st.Observed == 0 {
			t.Fatalf("%s: second board's stats %+v, want clean observations only", p, st)
		}
	}
}

// TestMemoBuildsOncePerKey: however many goroutines ask, each key is built
// once and every caller gets that build.
func TestMemoBuildsOncePerKey(t *testing.T) {
	var m memo[int, *int]
	var mu sync.Mutex
	builds := map[int]int{}
	got := make([][4]*int, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				got[w][k] = m.get(k, func(k int) *int {
					mu.Lock()
					builds[k]++
					mu.Unlock()
					return &k
				})
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < 4; k++ {
		if builds[k] != 1 {
			t.Fatalf("key %d built %d times", k, builds[k])
		}
		for w := range got {
			if got[w][k] != got[0][k] || *got[w][k] != k {
				t.Fatalf("key %d: caller %d got a different value", k, w)
			}
		}
	}
}

// BenchmarkDeploy times one default deploy per platform: testbed, boot and
// gate, with the table warm after the first iteration.
func BenchmarkDeploy(b *testing.B) {
	cfg := DefaultScenario()
	for _, p := range KnownPlatforms() {
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb := NewTestbed(cfg)
				if _, err := Deploy(p, tb, cfg, DeployOptions{}); err != nil {
					b.Fatal(err)
				}
				tb.Machine.Shutdown()
			}
		})
	}
}
