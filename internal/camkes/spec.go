package camkes

import (
	"fmt"
	"strings"

	"mkbas/internal/capdl"
	"mkbas/internal/machine"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// GenerateSpec compiles an assembly to its CapDL capability distribution
// without booting anything: the pure static half of Build. The spec it
// returns is exactly what Build installs into a kernel — Build consumes this
// function's output, so the spec cannot drift from the running system. This
// is what makes pre-boot policy analysis (internal/polcheck) sound: analyzing
// the generated spec IS analyzing the deployment.
func GenerateSpec(assembly *Assembly) (*capdl.Spec, error) {
	if err := validate(assembly); err != nil {
		return nil, err
	}
	spec := &capdl.Spec{}

	// Objects: one endpoint per provided interface, shared device/net-port
	// objects, one notification per consumed event.
	for _, comp := range assembly.Components {
		for _, iface := range sortedIfaces(comp) {
			spec.AddObject(epObjName(comp.Name, iface), sel4.KindEndpoint)
		}
	}
	seenDev := make(map[machine.DeviceID]bool)
	seenPort := make(map[vnet.Port]bool)
	for _, comp := range assembly.Components {
		for _, dev := range comp.Devices {
			if !seenDev[dev] {
				seenDev[dev] = true
				spec.AddObject(devObjName(dev), sel4.KindDevice)
			}
		}
		for _, port := range comp.NetPorts {
			if !seenPort[port] {
				seenPort[port] = true
				spec.AddObject(portObjName(port), sel4.KindNetPort)
			}
		}
	}
	for _, comp := range assembly.Components {
		for _, ev := range comp.Consumes {
			spec.AddObject(ntfnObjName(comp.Name, ev), sel4.KindNotification)
		}
	}

	// Badges: one per connection, deterministic by connection order.
	connBadge := make(map[Connection]sel4.Badge, len(assembly.Connections))
	for i, conn := range assembly.Connections {
		connBadge[conn] = sel4.Badge(i + 1)
	}
	eventBadge := make(map[Connection]sel4.Badge, len(assembly.EventConnections))
	for i, conn := range assembly.EventConnections {
		eventBadge[conn] = sel4.Badge(1) << uint(i%63)
	}

	// Capabilities, per generated thread. Slot math must mirror newRuntime.
	for _, comp := range assembly.Components {
		for _, th := range componentThreads(comp) {
			if th.iface != "" {
				spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotProvides,
					Object: epObjName(comp.Name, th.iface),
					Rights: sel4.CapRead,
				})
			}
			for i, uses := range comp.Uses {
				conn, ok := findConnection(assembly, comp.Name, uses)
				if !ok {
					continue // validated earlier; unreachable
				}
				// Clients get write+grant, never read: a client must not be
				// able to intercept requests addressed to the server.
				spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotUsesBase + sel4.CPtr(i),
					Object: epObjName(conn.ToComp, conn.ToIface),
					Rights: sel4.CapWrite | sel4.CapGrant,
					Badge:  connBadge[conn],
				})
			}
			for i, dev := range comp.Devices {
				spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotDeviceBase + sel4.CPtr(i),
					Object: devObjName(dev),
					Rights: sel4.RightsRW,
				})
			}
			for i, port := range comp.NetPorts {
				spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotNetBase + sel4.CPtr(i),
					Object: portObjName(port),
					Rights: sel4.RightsRW,
				})
			}
			for i, ev := range comp.Emits {
				conn, ok := findEventConnection(assembly, comp.Name, ev)
				if !ok {
					continue // validated earlier; unreachable
				}
				spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotEmitBase + sel4.CPtr(i),
					Object: ntfnObjName(conn.ToComp, conn.ToIface),
					Rights: sel4.CapWrite,
					Badge:  eventBadge[conn],
				})
			}
			for i, ev := range comp.Consumes {
				spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotConsumeBase + sel4.CPtr(i),
					Object: ntfnObjName(comp.Name, ev),
					Rights: sel4.CapRead,
				})
			}
		}
	}
	return spec, nil
}

// ChannelNames maps the kernel-side names of an assembly's IPC objects
// ("comp.iface" endpoints, "comp.ev" notifications — the names Build hands
// CreateEndpoint/CreateNotification) to their CapDL spec object names
// ("ep_comp_iface", "ntfn_comp_ev"). The online policy monitor uses the map
// to translate recorded kernel traffic into the certified graph's
// namespace.
func ChannelNames(assembly *Assembly) map[string]string {
	out := make(map[string]string)
	for _, comp := range assembly.Components {
		for _, iface := range sortedIfaces(comp) {
			out[comp.Name+"."+iface] = epObjName(comp.Name, iface)
		}
		for _, ev := range comp.Consumes {
			out[comp.Name+"."+ev] = ntfnObjName(comp.Name, ev)
		}
	}
	return out
}

// Spec object-name scheme, shared by GenerateSpec and Build.

func epObjName(comp, iface string) string    { return "ep_" + comp + "_" + iface }
func ntfnObjName(comp, ev string) string     { return "ntfn_" + comp + "_" + ev }
func devObjName(dev machine.DeviceID) string { return "dev_" + string(dev) }
func portObjName(port vnet.Port) string      { return fmt.Sprintf("port_%d", port) }

// Structure renders every part of the assembly that GenerateSpec and
// ChannelNames read, and nothing else: per component its name, priority,
// whether it has a control thread, its provided interfaces and those whose
// handler is nil, uses, emits, consumes, devices and net ports; then the
// procedure and event connections, all in declaration order. Handler and
// Run bodies are left out, so assemblies that differ only in the code their
// threads run render alike, and any two that render alike compile to the
// same spec.
func (a *Assembly) Structure() string {
	var b strings.Builder
	for _, comp := range a.Components {
		ifaces := sortedIfaces(comp)
		var nilHandlers []string
		for _, iface := range ifaces {
			if comp.Provides[iface] == nil {
				nilHandlers = append(nilHandlers, iface)
			}
		}
		fmt.Fprintf(&b, "comp %q prio=%d run=%t provides=%q nil=%q uses=%q emits=%q consumes=%q devices=%q ports=%v\n",
			comp.Name, comp.Priority, comp.Run != nil, ifaces, nilHandlers,
			comp.Uses, comp.Emits, comp.Consumes, comp.Devices, comp.NetPorts)
	}
	for _, c := range a.Connections {
		fmt.Fprintf(&b, "conn %q\n", c)
	}
	for _, c := range a.EventConnections {
		fmt.Fprintf(&b, "event %q\n", c)
	}
	return b.String()
}
