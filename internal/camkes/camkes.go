// Package camkes implements a CAmkES-style component framework (Section
// III-D) on top of the internal/sel4 kernel.
//
// A system is described as an Assembly: component instances plus
// seL4RPCCall connections between "uses" (client) and "provides" (server)
// procedure interfaces. Build plays the role of the CAmkES glue-code
// generator and the CapDL-generated bootstrap process rolled into one: it
// creates one endpoint per provided interface, one server thread per
// provided interface (so "the malicious web interface could [not]
// indefinitely block one of the temperature controller's threads"), mints
// badged client capabilities for every connection, installs device and
// network-port capabilities, and emits the capdl.Spec describing the
// finished distribution so it can be verified against the kernel.
//
// RPC wire format: request Label = method number, Words = arguments; reply
// Label = 0 for success or an error code, Words = results.
package camkes

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mkbas/internal/capdl"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/sel4"
	"mkbas/internal/vnet"
)

// Slot layout for generated CSpaces. Fixed and documented so CapDL specs are
// readable: the provides endpoint (interface threads only) sits at slot 0,
// client capabilities for uses-interfaces start at SlotUsesBase, devices and
// network ports follow.
const (
	// SlotProvides is the interface thread's own endpoint capability.
	SlotProvides sel4.CPtr = 0
	// SlotUsesBase is the first client capability slot.
	SlotUsesBase sel4.CPtr = 10
	// SlotDeviceBase is the first device capability slot.
	SlotDeviceBase sel4.CPtr = 40
	// SlotNetBase is the first network-port capability slot.
	SlotNetBase sel4.CPtr = 60
)

// Words holds an RPC's arguments or results: the message registers of one
// IPC message, carried by value so no call or handler shares (or heap
// allocates) a register block.
type Words = [sel4.MsgWords]uint64

// Handler serves one provided procedure interface. It runs on the
// interface's dedicated thread; badge identifies the calling connection.
// The results travel in the reply's message registers.
type Handler func(rt *Runtime, method uint64, args Words, badge sel4.Badge) (Words, error)

// Component is one CAmkES component definition/instance.
type Component struct {
	// Name is the instance name.
	Name string
	// Priority applies to all the component's threads.
	Priority int
	// Uses lists procedure interfaces this component is a client of.
	Uses []string
	// Provides maps provided interface names to their handlers; each gets
	// its own server thread.
	Provides map[string]Handler
	// Emits lists event interfaces this component raises.
	Emits []string
	// Consumes lists event interfaces this component waits on.
	Consumes []string
	// Run, if non-nil, is the component's active control thread.
	Run func(rt *Runtime)
	// Devices lists bus devices the component's threads get capabilities
	// for.
	Devices []machine.DeviceID
	// NetPorts lists network ports the component's threads get capabilities
	// for.
	NetPorts []vnet.Port
}

// Connection is a seL4RPCCall connection from a component's uses-interface
// to another component's provides-interface.
type Connection struct {
	FromComp  string
	FromIface string
	ToComp    string
	ToIface   string
}

// Assembly is the complete system description.
type Assembly struct {
	Components []*Component
	// Connections are seL4RPCCall (procedure) connections.
	Connections []Connection
	// EventConnections connect an emits-interface to a consumes-interface
	// (seL4Notification connections).
	EventConnections []Connection
}

// Build errors.
var (
	ErrBadAssembly = errors.New("camkes: invalid assembly")
)

// Runtime is the per-thread view a component's code receives: RPC client
// stubs for its uses-interfaces plus device and network access through the
// thread's capabilities.
type Runtime struct {
	api  *sel4.API
	comp *Component

	uses     map[string]sel4.CPtr
	devs     map[machine.DeviceID]sel4.CPtr
	ports    map[vnet.Port]sel4.CPtr
	emits    map[string]sel4.CPtr
	consumes map[string]sel4.CPtr
}

// RPCError carries a non-zero reply label from a remote handler.
type RPCError struct {
	Iface string
	Code  uint64
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("camkes: rpc on %q failed with code %d", e.Iface, e.Code)
}

// Call invokes method on the connected provider of a uses-interface and
// returns the reply's message registers. The results are a value, a copy
// the caller owns: a call allocates nothing, and no two calls share
// storage.
func (rt *Runtime) Call(iface string, method uint64, args ...uint64) (Words, error) {
	slot, ok := rt.uses[iface]
	if !ok {
		return Words{}, fmt.Errorf("%w: component %q does not use %q", ErrBadAssembly, rt.comp.Name, iface)
	}
	if len(args) > sel4.MsgWords {
		return Words{}, fmt.Errorf("camkes: too many arguments (%d)", len(args))
	}
	msg := sel4.Msg{Label: method}
	copy(msg.Words[:], args)
	reply, err := rt.api.Call(slot, msg)
	if err != nil {
		return Words{}, err
	}
	if reply.Label != 0 {
		return Words{}, &RPCError{Iface: iface, Code: reply.Label}
	}
	return reply.Words, nil
}

// DevRead reads a device register through the component's device capability.
func (rt *Runtime) DevRead(dev machine.DeviceID, reg uint32) (uint32, error) {
	slot, ok := rt.devs[dev]
	if !ok {
		return 0, fmt.Errorf("%w: component %q has no device %q", ErrBadAssembly, rt.comp.Name, dev)
	}
	return rt.api.DevRead(slot, reg)
}

// DevWrite writes a device register through the component's device
// capability.
func (rt *Runtime) DevWrite(dev machine.DeviceID, reg uint32, value uint32) error {
	slot, ok := rt.devs[dev]
	if !ok {
		return fmt.Errorf("%w: component %q has no device %q", ErrBadAssembly, rt.comp.Name, dev)
	}
	return rt.api.DevWrite(slot, reg, value)
}

// NetListen binds one of the component's network-port capabilities.
func (rt *Runtime) NetListen(port vnet.Port) (int32, error) {
	slot, ok := rt.ports[port]
	if !ok {
		return 0, fmt.Errorf("%w: component %q has no port %d", ErrBadAssembly, rt.comp.Name, port)
	}
	return rt.api.NetListen(slot)
}

// NetAccept / NetRead / NetWrite / NetClose wrap the thread's network
// handles.
func (rt *Runtime) NetAccept(listener int32) (int32, error) { return rt.api.NetAccept(listener) }

// NetRead blocks until data or EOF is available.
func (rt *Runtime) NetRead(conn int32, max int) ([]byte, error) { return rt.api.NetRead(conn, max) }

// NetWrite sends bytes on a connection handle.
func (rt *Runtime) NetWrite(conn int32, data []byte) error { return rt.api.NetWrite(conn, data) }

// NetClose closes a connection handle.
func (rt *Runtime) NetClose(conn int32) error { return rt.api.NetClose(conn) }

// Sleep parks the thread for a virtual duration.
func (rt *Runtime) Sleep(d time.Duration) { rt.api.Sleep(d) }

// Now returns the current virtual time.
func (rt *Runtime) Now() machine.Time { return rt.api.Now() }

// Trace writes to the board trace console.
func (rt *Runtime) Trace(tag, text string) { rt.api.Trace(tag, text) }

// API exposes the raw seL4 API, used by attack bodies that deliberately step
// outside the glue (brute-forcing slots, attempting suspends).
func (rt *Runtime) API() *sel4.API { return rt.api }

// UsesSlot reports the CSpace slot of a uses-interface capability (attack
// code inspects this; regular components use Call).
func (rt *Runtime) UsesSlot(iface string) (sel4.CPtr, bool) {
	s, ok := rt.uses[iface]
	return s, ok
}

// System is a built, running assembly.
type System struct {
	kernel   *sel4.Kernel
	spec     *capdl.Spec
	assembly *Assembly
	bind     capdl.Binding

	// ifaceEP maps "comp.iface" to its endpoint object.
	ifaceEP map[string]sel4.ObjID
	// tcbs maps thread names ("comp" for control, "comp.iface" for
	// interface threads) to TCB ids.
	tcbs map[string]sel4.ObjID
	// restarts counts Respawn calls per thread name.
	restarts map[string]int
}

// Kernel returns the underlying seL4 kernel.
func (s *System) Kernel() *sel4.Kernel { return s.kernel }

// Spec returns the generated CapDL description.
func (s *System) Spec() *capdl.Spec { return s.spec }

// Verify checks the kernel's live capability distribution against the
// generated CapDL spec.
func (s *System) Verify() error { return capdl.Verify(s.spec, s.kernel, s.bind) }

// TCB returns the TCB object id for a thread name ("comp" or "comp.iface").
func (s *System) TCB(name string) (sel4.ObjID, bool) {
	id, ok := s.tcbs[name]
	return id, ok
}

// ThreadAlive reports whether the named thread is currently running.
func (s *System) ThreadAlive(name string) bool {
	id, ok := s.tcbs[name]
	return ok && s.kernel.ThreadAlive(id)
}

// ThreadNames returns every generated thread name in stable order.
func (s *System) ThreadNames() []string {
	out := make([]string, 0, len(s.tcbs))
	for name := range s.tcbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CrashThread kills a thread by name (fault injection).
func (s *System) CrashThread(name string) error {
	id, ok := s.tcbs[name]
	if !ok {
		return fmt.Errorf("%w: no thread %q", ErrBadAssembly, name)
	}
	return s.kernel.KillThread(id)
}

// Restarts reports how many times a thread has been respawned.
func (s *System) Restarts(name string) int { return s.restarts[name] }

// TotalRestarts sums Respawn counts over all threads.
func (s *System) TotalRestarts() int {
	n := 0
	for _, c := range s.restarts {
		n += c
	}
	return n
}

// Respawn reincarnates a dead thread: a fresh TCB running the same generated
// body, with the capability distribution re-installed from the CapDL spec —
// the component-level analogue of MINIX's reincarnation server, implemented
// in a monitor component rather than the kernel (seL4 itself has no restart
// policy; policy lives in user space). Refuses while the thread is alive.
func (s *System) Respawn(name string) error {
	if s.ThreadAlive(name) {
		return fmt.Errorf("camkes: thread %q is still alive", name)
	}
	comp, iface, err := s.findThread(name)
	if err != nil {
		return err
	}
	var specTCB *capdl.TCBSpec
	for i := range s.spec.TCBs {
		if s.spec.TCBs[i].Name == name {
			specTCB = &s.spec.TCBs[i]
			break
		}
	}
	if specTCB == nil {
		return fmt.Errorf("%w: spec has no thread %q", ErrBadAssembly, name)
	}
	tcbID := s.kernel.CreateThread(name, comp.Priority, threadBody(comp, iface))
	if err := s.installSpecCaps(tcbID, *specTCB); err != nil {
		return err
	}
	if err := s.kernel.Start(tcbID); err != nil {
		return err
	}
	s.tcbs[name] = tcbID
	s.bind.TCBs[name] = tcbID
	s.restarts[name]++
	s.kernel.Events().Emit(obs.SecurityEvent{
		Kind:      obs.EventRestart,
		Mechanism: obs.MechRecovery,
		Src:       "monitor",
		Dst:       name,
		Detail:    fmt.Sprintf("respawn #%d", s.restarts[name]),
	})
	return nil
}

// findThread resolves a generated thread name back to its component and
// interface ("" for the control thread).
func (s *System) findThread(name string) (*Component, string, error) {
	for _, comp := range s.assembly.Components {
		for _, th := range componentThreads(comp) {
			if th.name == name {
				return comp, th.iface, nil
			}
		}
	}
	return nil, "", fmt.Errorf("%w: no thread %q", ErrBadAssembly, name)
}
