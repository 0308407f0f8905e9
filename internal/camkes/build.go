package camkes

import (
	"fmt"
	"sort"

	"mkbas/internal/machine"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// BuildConfig parameterises Build.
type BuildConfig struct {
	// Net is the board network stack; required when any component declares
	// NetPorts.
	Net *vnet.Stack
}

// Build boots an seL4 kernel on the board, creates all objects and threads,
// installs the capability distribution of the assembly's compiled Image,
// and starts every thread. This is the bootstrap process of Section III-C
// ("the kernel simply hands over all capabilities to the bootstrap process
// ... this bootstrap process can create new processes and distribute
// capabilities to them") driven by the component model, as CAmkES does.
//
// The running system's capabilities are installed FROM the image's spec —
// not built alongside it — so what internal/polcheck analyzes statically is,
// by construction, what the kernel enforces dynamically. img must have been
// compiled from an assembly of this one's structure (Build checks, without
// allocating); the assembly supplies only the code each thread runs and the
// components' priorities. Build reads img and never writes it, so boards
// booting concurrently may share one.
func Build(m *machine.Machine, img *Image, assembly *Assembly, cfg BuildConfig) (*System, error) {
	if err := img.check(assembly); err != nil {
		return nil, err
	}
	m.Obs().Edges().SetBase(img.edges)
	k := sel4.NewKernel(m, sel4.Config{Net: cfg.Net})
	sys := &System{
		kernel:   k,
		img:      img,
		assembly: assembly,
		objs:     make([]sel4.ObjID, len(img.objects)),
		tcbs:     make([]sel4.ObjID, len(img.threads)),
		restarts: make([]int, len(img.threads)),
	}

	// Pass 1: kernel objects, in spec order: one endpoint per provided
	// interface, device and net-port objects shared across components that
	// name them, one notification per consumed event.
	for i, o := range img.objects {
		switch o.kind {
		case sel4.KindEndpoint:
			sys.objs[i] = k.CreateEndpoint(o.label)
		case sel4.KindDevice:
			sys.objs[i] = k.CreateDevice(o.dev)
		case sel4.KindNetPort:
			sys.objs[i] = k.CreateNetPort(o.port)
		case sel4.KindNotification:
			sys.objs[i] = k.CreateNotification(o.label)
		}
	}

	// Pass 2: create threads.
	for i, th := range img.threads {
		comp := assembly.Components[th.comp]
		sys.tcbs[i] = k.CreateThread(th.name, comp.Priority, threadBody(comp, th.iface))
	}

	// Pass 3: install the generated capability distribution, slot by slot.
	for i, ti := range img.threadTCB {
		if ti >= 0 {
			sys.installSpecCaps(sys.tcbs[i], ti)
		}
	}

	// Pass 4: start everything, servers before control threads so RPC
	// targets exist when Run bodies issue their first calls.
	for _, control := range []bool{false, true} {
		for i, th := range img.threads {
			if (th.iface == "") != control {
				continue
			}
			if err := k.Start(sys.tcbs[i]); err != nil {
				return nil, err
			}
		}
	}
	return sys, nil
}

// threadBody builds the glue body for one generated thread. Shared between
// Build and System.Respawn so a reincarnated thread runs exactly the code the
// original did.
func threadBody(comp *Component, iface string) func(api *sel4.API) {
	if iface == "" {
		run := comp.Run
		return func(api *sel4.API) {
			run(newRuntime(api, comp))
		}
	}
	handler := comp.Provides[iface]
	return func(api *sel4.API) {
		serveInterface(newRuntime(api, comp), handler)
	}
}

// installSpecCaps installs spec TCB ti's capability rows into a live TCB in
// one call, so its CSpace is sized once to the image's highest slot.
func (s *System) installSpecCaps(tcbID sel4.ObjID, ti int) {
	s.caps = s.caps[:0]
	for i, c := range s.img.spec.TCBs[ti].Caps {
		obj := s.img.capObjects[ti][i]
		objID := s.objs[obj]
		var cap sel4.Capability
		switch s.img.objects[obj].kind {
		case sel4.KindEndpoint:
			cap = sel4.EndpointCap(objID, c.Rights, c.Badge)
		case sel4.KindNotification:
			cap = sel4.NotificationCap(objID, c.Rights, c.Badge)
		case sel4.KindDevice:
			cap = sel4.DeviceCap(objID, c.Rights)
		case sel4.KindNetPort:
			cap = sel4.NetPortCap(objID, c.Rights)
		}
		s.caps = append(s.caps, sel4.SlotCap{Slot: c.Slot, Cap: cap})
	}
	if err := s.kernel.InstallCaps(tcbID, s.caps); err != nil {
		panic(fmt.Sprintf("camkes: installing caps: %v", err))
	}
}

// componentThreads lists the threads the glue generates for one component:
// one per provided interface plus a control thread when Run is set.
func componentThreads(comp *Component) []thread {
	var out []thread
	for _, iface := range sortedIfaces(comp) {
		out = append(out, thread{name: comp.Name + "." + iface, iface: iface})
	}
	if comp.Run != nil {
		out = append(out, thread{name: comp.Name})
	}
	return out
}

// sortedIfaces returns the provided interface names in stable order.
func sortedIfaces(comp *Component) []string {
	out := make([]string, 0, len(comp.Provides))
	for iface := range comp.Provides {
		out = append(out, iface)
	}
	sort.Strings(out)
	return out
}

// newRuntime builds the per-thread runtime: slot math mirrors Build exactly.
func newRuntime(api *sel4.API, comp *Component) *Runtime {
	rt := &Runtime{
		SocketAPI: api.SocketAPI,
		ProcAPI:   api.ProcAPI,
		api:       api,
		comp:      comp,
		uses:      make(map[string]sel4.CPtr, len(comp.Uses)),
		devs:      make(map[machine.DeviceID]sel4.CPtr, len(comp.Devices)),
		ports:     make(map[vnet.Port]sel4.CPtr, len(comp.NetPorts)),
		emits:     make(map[string]sel4.CPtr, len(comp.Emits)),
		consumes:  make(map[string]sel4.CPtr, len(comp.Consumes)),
	}
	for i, uses := range comp.Uses {
		rt.uses[uses] = SlotUsesBase + sel4.CPtr(i)
	}
	for i, dev := range comp.Devices {
		rt.devs[dev] = SlotDeviceBase + sel4.CPtr(i)
	}
	for i, port := range comp.NetPorts {
		rt.ports[port] = SlotNetBase + sel4.CPtr(i)
	}
	for i, ev := range comp.Emits {
		rt.emits[ev] = SlotEmitBase + sel4.CPtr(i)
	}
	for i, ev := range comp.Consumes {
		rt.consumes[ev] = SlotConsumeBase + sel4.CPtr(i)
	}
	return rt
}

// serveInterface is the generated server loop for one provided interface.
// A failed Reply is tolerated: a client that used plain Send instead of Call
// leaves no reply capability, and a server thread must not be killable by a
// malformed client (the asymmetric-trust concern of [16]).
func serveInterface(rt *Runtime, handler Handler) {
	for {
		res, err := rt.api.Recv(SlotProvides)
		if err != nil {
			return
		}
		results, herr := handler(rt, res.Msg.Label, res.Msg.Words, res.Badge)
		reply := sel4.Msg{}
		if herr != nil {
			reply.Label = rpcErrCode(herr)
		} else {
			reply.Words = results
		}
		if err := rt.api.Reply(reply); err != nil {
			rt.api.Trace("camkes", "reply dropped: "+err.Error())
		}
	}
}

// rpcErrCode maps a handler error to a non-zero wire code.
func rpcErrCode(err error) uint64 {
	var rpcErr *RPCError
	if ok := asRPCError(err, &rpcErr); ok && rpcErr.Code != 0 {
		return rpcErr.Code
	}
	return 1
}

// asRPCError is a tiny errors.As specialisation kept local to avoid an
// import cycle of convenience helpers.
func asRPCError(err error, target **RPCError) bool {
	for err != nil {
		if e, ok := err.(*RPCError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// findEventConnection locates the event connection for (component,
// emits-interface).
func findEventConnection(assembly *Assembly, fromComp, fromIface string) (Connection, bool) {
	for _, conn := range assembly.EventConnections {
		if conn.FromComp == fromComp && conn.FromIface == fromIface {
			return conn, true
		}
	}
	return Connection{}, false
}

// findConnection locates the connection for (component, uses-interface).
func findConnection(assembly *Assembly, fromComp, fromIface string) (Connection, bool) {
	for _, conn := range assembly.Connections {
		if conn.FromComp == fromComp && conn.FromIface == fromIface {
			return conn, true
		}
	}
	return Connection{}, false
}

// validate checks assembly well-formedness: unique component names, every
// connection endpoint exists, every uses-interface has exactly one
// connection, every provided interface has a handler.
func validate(assembly *Assembly) error {
	comps := make(map[string]*Component, len(assembly.Components))
	for _, comp := range assembly.Components {
		if comp.Name == "" {
			return fmt.Errorf("%w: unnamed component", ErrBadAssembly)
		}
		if _, dup := comps[comp.Name]; dup {
			return fmt.Errorf("%w: duplicate component %q", ErrBadAssembly, comp.Name)
		}
		if comp.Run == nil && len(comp.Provides) == 0 {
			return fmt.Errorf("%w: component %q has no threads", ErrBadAssembly, comp.Name)
		}
		for iface, h := range comp.Provides {
			if h == nil {
				return fmt.Errorf("%w: %s.%s has no handler", ErrBadAssembly, comp.Name, iface)
			}
		}
		comps[comp.Name] = comp
	}
	for _, conn := range assembly.Connections {
		from, ok := comps[conn.FromComp]
		if !ok {
			return fmt.Errorf("%w: connection from unknown component %q", ErrBadAssembly, conn.FromComp)
		}
		if !contains(from.Uses, conn.FromIface) {
			return fmt.Errorf("%w: %s does not use %q", ErrBadAssembly, conn.FromComp, conn.FromIface)
		}
		to, ok := comps[conn.ToComp]
		if !ok {
			return fmt.Errorf("%w: connection to unknown component %q", ErrBadAssembly, conn.ToComp)
		}
		if _, ok := to.Provides[conn.ToIface]; !ok {
			return fmt.Errorf("%w: %s does not provide %q", ErrBadAssembly, conn.ToComp, conn.ToIface)
		}
	}
	for _, comp := range assembly.Components {
		for _, uses := range comp.Uses {
			n := 0
			for _, conn := range assembly.Connections {
				if conn.FromComp == comp.Name && conn.FromIface == uses {
					n++
				}
			}
			if n != 1 {
				return fmt.Errorf("%w: %s.%s has %d connections, want 1", ErrBadAssembly, comp.Name, uses, n)
			}
		}
	}
	for _, conn := range assembly.EventConnections {
		from, ok := comps[conn.FromComp]
		if !ok || !contains(from.Emits, conn.FromIface) {
			return fmt.Errorf("%w: event connection from unknown %s.%s", ErrBadAssembly, conn.FromComp, conn.FromIface)
		}
		to, ok := comps[conn.ToComp]
		if !ok || !contains(to.Consumes, conn.ToIface) {
			return fmt.Errorf("%w: event connection to unknown %s.%s", ErrBadAssembly, conn.ToComp, conn.ToIface)
		}
	}
	for _, comp := range assembly.Components {
		for _, ev := range comp.Emits {
			if _, ok := findEventConnection(assembly, comp.Name, ev); !ok {
				return fmt.Errorf("%w: %s emits %q with no connection", ErrBadAssembly, comp.Name, ev)
			}
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
