package bas

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mkbas/internal/aadl"
	"mkbas/internal/camkes"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck/monitor"
)

// TestBootedProcessesFollowModel boots every platform with both gateways
// and the monitor on, and checks each spawned scenario process against the
// model: its engine priority is its Priority; each driver reaches the
// devices its Devices names, and no process is refused a device, while the
// web interface, which names none, reaches no device on every kernel that
// enforces device grants, and each refused probe books exactly one denied
// security event; and the monitor certifies each subject at the origin the
// scenario has always given it.
func TestBootedProcessesFollowModel(t *testing.T) {
	pkg, err := aadl.Parse(aadl.TempControl)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := pkg.System(aadl.TempControlSystem)
	priority := make(map[string]int)
	driver := make(map[machine.DeviceID]string)
	for _, sub := range sys.Subcomponents {
		proc, _ := pkg.Process(sub.ProcessType)
		priority[sub.Name] = proc.Priority()
		for _, name := range proc.Devices() {
			driver[modelDevices[name]] = sub.Name
		}
	}
	devices := []machine.DeviceID{plant.DevTempSensor, plant.DevHeater, plant.DevAlarm}
	if len(driver) != len(devices) {
		t.Fatalf("the model's drivers cover %v, want each of %v", driver, devices)
	}
	// The origins every deploy has certified its subjects at.
	origins := map[string]monitor.Origin{
		NameTempSensor:    monitor.OriginBoot,
		NameHeaterAct:     monitor.OriginBoot,
		NameAlarmAct:      monitor.OriginBoot,
		NameBACnetGateway: monitor.OriginBoot,
		NameTenantGateway: monitor.OriginBoot,
		NameScenario:      monitor.OriginBoot,
		NameTempControl:   monitor.OriginOperator,
		NameWebInterface:  monitor.OriginWeb,
	}
	// Every platform boots these; the loader and the tenant gateway are
	// not on every kernel's policy.
	booted := append(slices.Clone(forkOrder[:]), NameBACnetGateway)

	for _, p := range KnownPlatforms() {
		t.Run(string(p), func(t *testing.T) {
			// The room starts out of range, so the alarm trips at once.
			cfg := DefaultScenario()
			cfg.Controller.AlarmDelay = time.Second
			tb := NewTestbed(cfg)
			defer tb.Machine.Shutdown()
			var reached []machine.DeviceID
			// booked is the denied events each refused probe booked.
			var booked []int64
			events := tb.Machine.Obs().Events()
			probe := func(web processPort) {
				for _, dev := range devices {
					before := events.DeniedTotal()
					if _, err := web.DevRead(dev, plant.RegTempMilliC); err == nil {
						reached = append(reached, dev)
					} else {
						booked = append(booked, events.DeniedTotal()-before)
					}
				}
			}
			d, err := Deploy(p, tb, cfg, DeployOptions{
				Monitor: true, TenantAPI: true, BACnet: BACnetOptions{Enabled: true},
				MinixWeb: func(api *minix.API) { probe(api) },
				Sel4Web:  func(rt *camkes.Runtime) { probe(rt) },
				LinuxWeb: func(api *linuxsim.API) { probe(api) },
			})
			if err != nil {
				t.Fatal(err)
			}
			d.Run(2 * time.Minute)

			seen := make(map[string]bool)
			for _, proc := range tb.Machine.Engine().Procs() {
				// seL4 names a component's threads "comp" and "comp.iface".
				comp, _, _ := strings.Cut(proc.Name(), ".")
				want, ok := priority[comp]
				if !ok {
					continue
				}
				seen[comp] = true
				if proc.Priority() != want {
					t.Errorf("%s runs at priority %d, the model says %d", proc.Name(), proc.Priority(), want)
				}
			}
			for _, name := range booted {
				if !seen[name] {
					t.Errorf("%s never spawned", name)
				}
			}

			for _, dev := range devices {
				if r, w := tb.Machine.Bus().IOCount(dev); r+w == 0 {
					t.Errorf("%s never reached its device %s", driver[dev], dev)
				}
			}
			for _, e := range tb.Machine.Obs().Events().Events() {
				if e.Denied && driver[machine.DeviceID(e.Dst)] != "" && e.Src != NameWebInterface {
					t.Errorf("%s was refused device %s: %s", e.Src, e.Dst, e.Detail)
				}
			}
			// Same-account Linux enforces no per-process grant: every
			// process is the one account that owns every device file.
			var want []machine.DeviceID
			if p == PlatformLinux {
				want = devices
			}
			if !slices.Equal(reached, want) {
				t.Errorf("the web interface reached devices %v, want %v", reached, want)
			}
			if len(booked) != len(devices)-len(want) {
				t.Errorf("the web interface was refused %d probes, want %d", len(booked), len(devices)-len(want))
			}
			for i, n := range booked {
				if n != 1 {
					t.Errorf("refused probe %d booked %d denied events, want 1", i+1, n)
				}
			}

			mon := d.PolicyMonitor()
			for subject, want := range origins {
				got, ok := mon.CurrentOrigin(subject)
				switch {
				case ok && got != want:
					t.Errorf("monitor certifies %s at origin %v, want %v", subject, got, want)
				case !ok && slices.Contains(booted, subject):
					t.Errorf("monitor has no subject %s", subject)
				}
			}
		})
	}
}
