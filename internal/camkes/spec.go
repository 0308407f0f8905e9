package camkes

import (
	"fmt"
	"slices"
	"sort"

	"mkbas/internal/capdl"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// GenerateSpec compiles an assembly to its CapDL capability distribution
// without booting anything: the pure static half of Build. The spec it
// returns is exactly what Build installs into a kernel — Build installs
// from the spec of the assembly's Image — so the spec cannot drift from the
// running system. This is what makes pre-boot policy analysis
// (internal/polcheck) sound: analyzing the generated spec IS analyzing the
// deployment.
func GenerateSpec(assembly *Assembly) (*capdl.Spec, error) {
	img, err := Compile(assembly)
	if err != nil {
		return nil, err
	}
	return img.spec, nil
}

// Image is the compiled static half of an assembly: its CapDL spec, how
// Build creates each spec object, the generated threads, and the
// kernel-to-spec channel names. It depends on the assembly's structure
// (components, interfaces, events, devices, ports and connections) and not
// on the code its threads run or their priorities, so one Image serves
// every assembly of that structure. Nothing writes an Image after Compile:
// any number of Systems, on any goroutines, build and respawn from one.
type Image struct {
	spec *capdl.Spec
	// shape is the structure the image was compiled from; Build refuses an
	// assembly of any other.
	shape Assembly
	// objects are spec.Objects in order, with what creates each.
	objects []object
	// threads are the generated threads in creation order; threadIndex
	// finds one by name and names lists them sorted.
	threads     []thread
	threadIndex map[string]int
	names       []string
	// threadTCB maps each thread to its spec TCB (-1 for a thread the spec
	// gives no capability), and capObjects each spec TCB's caps to the
	// objects they name.
	threadTCB  []int
	capObjects [][]int
	channels   map[string]string
	// edges are the IPC edges the threads' capabilities fix, interned
	// once: every board's edge table starts from them.
	edges *obs.Edges
}

// object is one spec object and the kernel call that creates it: its kind,
// plus the kernel-side name (endpoints and notifications), device or port.
type object struct {
	kind  sel4.ObjKind
	label string
	dev   machine.DeviceID
	port  vnet.Port
}

// thread describes one generated thread of a component.
type thread struct {
	name  string // "comp" or "comp.iface"
	comp  int    // the component's index in the assembly
	iface string // "" for the control thread
}

// Spec returns the image's CapDL capability distribution. It is shared:
// callers must not modify it.
func (img *Image) Spec() *capdl.Spec { return img.spec }

// ChannelNames maps the kernel-side names of the image's IPC objects
// ("comp.iface" endpoints, "comp.ev" notifications — the names Build hands
// CreateEndpoint/CreateNotification) to their CapDL spec object names
// ("ep_comp_iface", "ntfn_comp_ev"). The online policy monitor uses the map
// to translate recorded kernel traffic into the certified graph's
// namespace. It is shared: callers must not modify it.
func (img *Image) ChannelNames() map[string]string { return img.channels }

// Compile validates an assembly and compiles its Image.
func Compile(assembly *Assembly) (*Image, error) {
	if err := validate(assembly); err != nil {
		return nil, err
	}
	img := &Image{
		spec:        &capdl.Spec{},
		threadIndex: make(map[string]int),
		channels:    make(map[string]string),
		edges:       obs.NewEdges(),
	}
	img.shape.Connections = slices.Clone(assembly.Connections)
	img.shape.EventConnections = slices.Clone(assembly.EventConnections)
	objIndex := make(map[string]int)
	add := func(name string, o object) {
		objIndex[name] = len(img.objects)
		img.objects = append(img.objects, o)
		img.spec.AddObject(name, o.kind)
		if o.label != "" {
			img.channels[o.label] = name
		}
	}

	// Objects: one endpoint per provided interface, shared device/net-port
	// objects, one notification per consumed event.
	for _, comp := range assembly.Components {
		for _, iface := range sortedIfaces(comp) {
			add(epObjName(comp.Name, iface), object{kind: sel4.KindEndpoint, label: comp.Name + "." + iface})
		}
	}
	for _, comp := range assembly.Components {
		for _, dev := range comp.Devices {
			if _, ok := objIndex[devObjName(dev)]; !ok {
				add(devObjName(dev), object{kind: sel4.KindDevice, dev: dev})
			}
		}
		for _, port := range comp.NetPorts {
			if _, ok := objIndex[portObjName(port)]; !ok {
				add(portObjName(port), object{kind: sel4.KindNetPort, port: port})
			}
		}
	}
	for _, comp := range assembly.Components {
		for _, ev := range comp.Consumes {
			add(ntfnObjName(comp.Name, ev), object{kind: sel4.KindNotification, label: comp.Name + "." + ev})
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
	for ci, comp := range assembly.Components {
		img.shape.Components = append(img.shape.Components, shapeOf(comp))
		for _, th := range componentThreads(comp) {
			th.comp = ci
			img.threadIndex[th.name] = len(img.threads)
			img.threads = append(img.threads, th)
			if th.iface != "" {
				img.spec.AddCap(th.name, capdl.CapSpec{
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
				img.spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotUsesBase + sel4.CPtr(i),
					Object: epObjName(conn.ToComp, conn.ToIface),
					Rights: sel4.CapWrite | sel4.CapGrant,
					Badge:  connBadge[conn],
				})
			}
			for i, dev := range comp.Devices {
				img.spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotDeviceBase + sel4.CPtr(i),
					Object: devObjName(dev),
					Rights: sel4.RightsRW,
				})
			}
			for i, port := range comp.NetPorts {
				img.spec.AddCap(th.name, capdl.CapSpec{
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
				img.spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotEmitBase + sel4.CPtr(i),
					Object: ntfnObjName(conn.ToComp, conn.ToIface),
					Rights: sel4.CapWrite,
					Badge:  eventBadge[conn],
				})
			}
			for i, ev := range comp.Consumes {
				img.spec.AddCap(th.name, capdl.CapSpec{
					Slot:   SlotConsumeBase + sel4.CPtr(i),
					Object: ntfnObjName(comp.Name, ev),
					Rights: sel4.CapRead,
				})
			}
		}
	}

	// Resolve every spec name once, so Build and Respawn index slices.
	img.threadTCB = make([]int, len(img.threads))
	for i := range img.threadTCB {
		img.threadTCB[i] = -1
	}
	for ti, t := range img.spec.TCBs {
		img.threadTCB[img.threadIndex[t.Name]] = ti
		objs := make([]int, len(t.Caps))
		for i, c := range t.Caps {
			objs[i] = objIndex[c.Object]
			o := img.objects[objs[i]]
			sel4.InternCapEdges(img.edges, t.Name, o.label, o.kind)
		}
		img.capObjects = append(img.capObjects, objs)
	}
	for name := range img.threadIndex {
		img.names = append(img.names, name)
	}
	sort.Strings(img.names)
	return img, nil
}

// shapeOf copies the structural fields of a component: everything but its
// priority and the code its threads run. Provides keeps the interface
// names; the handlers are dropped.
func shapeOf(comp *Component) *Component {
	shape := &Component{
		Name: comp.Name, Uses: slices.Clone(comp.Uses), Emits: slices.Clone(comp.Emits),
		Consumes: slices.Clone(comp.Consumes), Devices: slices.Clone(comp.Devices),
		NetPorts: slices.Clone(comp.NetPorts), Provides: make(map[string]Handler, len(comp.Provides)),
	}
	for iface := range comp.Provides {
		shape.Provides[iface] = nil
	}
	if comp.Run != nil {
		shape.Run = func(*Runtime) {}
	}
	return shape
}

// check reports whether assembly has the structure img was compiled from:
// the same components in the same order with the same interfaces, events,
// devices and ports, every provided interface handled, a control thread
// exactly where the image has one, and the same connections. Thread code
// and priorities may differ. It allocates nothing.
func (img *Image) check(assembly *Assembly) error {
	mismatch := func(what string) error {
		return fmt.Errorf("%w: assembly does not match its image: %s", ErrBadAssembly, what)
	}
	if len(assembly.Components) != len(img.shape.Components) {
		return mismatch("component count")
	}
	for i, comp := range assembly.Components {
		shape := img.shape.Components[i]
		if comp.Name != shape.Name || (comp.Run == nil) != (shape.Run == nil) ||
			!slices.Equal(comp.Uses, shape.Uses) || !slices.Equal(comp.Emits, shape.Emits) ||
			!slices.Equal(comp.Consumes, shape.Consumes) || !slices.Equal(comp.Devices, shape.Devices) ||
			!slices.Equal(comp.NetPorts, shape.NetPorts) || len(comp.Provides) != len(shape.Provides) {
			return mismatch("component " + shape.Name)
		}
		for iface := range shape.Provides {
			if comp.Provides[iface] == nil {
				return mismatch(shape.Name + "." + iface + " has no handler")
			}
		}
	}
	if !slices.Equal(assembly.Connections, img.shape.Connections) ||
		!slices.Equal(assembly.EventConnections, img.shape.EventConnections) {
		return mismatch("connections")
	}
	return nil
}

// Spec object-name scheme, shared by GenerateSpec and Build.

func epObjName(comp, iface string) string    { return "ep_" + comp + "_" + iface }
func ntfnObjName(comp, ev string) string     { return "ntfn_" + comp + "_" + ev }
func devObjName(dev machine.DeviceID) string { return "dev_" + string(dev) }
func portObjName(port vnet.Port) string      { return fmt.Sprintf("port_%d", port) }
