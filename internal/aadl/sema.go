package aadl

import (
	"fmt"
	"math"
	"slices"

	"mkbas/internal/core"
)

// nameProps is every name-valued process property and the names it may
// list: the PM's audited services, the kernels, the monitor's origin labels
// and, for Devices, any name.
var nameProps = []struct {
	key   string
	known func(string) bool
}{
	{"syscalls", func(name string) bool { _, ok := syscallKind(name); return ok }},
	{"kernels", func(name string) bool { return slices.Contains([]string{"minix", "sel4", "linux"}, name) }},
	{"origin", func(name string) bool { return slices.Contains([]string{"boot", "operator", "web", "untrusted"}, name) }},
	{"devices", func(string) bool { return true }},
}

// analyze performs the semantic checks the AADL workbench would: every
// subcomponent's process type exists, connections reference real ports with
// compatible directions, every process carries a unique AC_ID, message
// types fit the ACM's 0..63 space, the Syscalls and Kernels properties
// name known services and kernels, every process on Linux carries a
// Linux_Account, a Priority fits the engine's 0..15 bands, an Origin names
// one known label and Devices lists names.
func analyze(pkg *Package) error {
	seenProc := make(map[string]bool, len(pkg.Processes))
	for _, proc := range pkg.Processes {
		if seenProc[proc.Name] {
			return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("duplicate process %q", proc.Name)}
		}
		seenProc[proc.Name] = true
		seenPort := make(map[string]bool, len(proc.Ports))
		for _, port := range proc.Ports {
			if seenPort[port.Name] {
				return &SemanticError{Line: port.Line, Msg: fmt.Sprintf("duplicate port %q in %q", port.Name, proc.Name)}
			}
			seenPort[port.Name] = true
		}
		for _, p := range nameProps {
			if err := checkNames(&proc, p.key, p.known); err != nil {
				return err
			}
		}
		if err := checkAccount(&proc); err != nil {
			return err
		}
		// The engine's priority bands run from 0, the most urgent, to 15.
		if v := proc.Properties["priority"]; v.IsList || v.Number < 0 || v.Number > 15 {
			return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("process %q property priority must be a number in 0..15", proc.Name)}
		}
		if len(proc.Properties["origin"].Names) > 1 {
			return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("process %q property origin must name one label", proc.Name)}
		}
	}

	acids := make(map[int64]string, len(pkg.Processes))
	for _, proc := range pkg.Processes {
		id := proc.ACID()
		if id == 0 {
			return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("process %q has no AC_ID property", proc.Name)}
		}
		if id < 0 || id > int64(^uint32(0)) {
			return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("process %q AC_ID %d out of range", proc.Name, id)}
		}
		if other, dup := acids[id]; dup {
			return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("AC_ID %d assigned to both %q and %q", id, other, proc.Name)}
		}
		acids[id] = proc.Name
	}

	for i := range pkg.Systems {
		sys := &pkg.Systems[i]
		seenSub := make(map[string]bool, len(sys.Subcomponents))
		for _, sub := range sys.Subcomponents {
			if seenSub[sub.Name] {
				return &SemanticError{Line: sub.Line, Msg: fmt.Sprintf("duplicate subcomponent %q", sub.Name)}
			}
			seenSub[sub.Name] = true
			if _, ok := pkg.Process(sub.ProcessType); !ok {
				return &SemanticError{Line: sub.Line, Msg: fmt.Sprintf("subcomponent %q references unknown process %q", sub.Name, sub.ProcessType)}
			}
		}
		for _, conn := range sys.Connections {
			srcPort, err := resolvePort(pkg, sys, conn.Src, conn.Line)
			if err != nil {
				return err
			}
			dstPort, err := resolvePort(pkg, sys, conn.Dst, conn.Line)
			if err != nil {
				return err
			}
			if srcPort.Direction != DirOut {
				return &SemanticError{Line: conn.Line, Msg: fmt.Sprintf("connection %q source %s is not an out port", conn.Label, conn.Src)}
			}
			if dstPort.Direction != DirIn {
				return &SemanticError{Line: conn.Line, Msg: fmt.Sprintf("connection %q destination %s is not an in port", conn.Label, conn.Dst)}
			}
			for _, mt := range conn.MessageTypes() {
				if mt < 0 || mt > int64(core.MaxMsgType) {
					return &SemanticError{Line: conn.Line, Msg: fmt.Sprintf("connection %q message type %d outside 0..%d", conn.Label, mt, core.MaxMsgType)}
				}
			}
		}
	}
	return nil
}

// checkNames rejects a name-valued property of proc that is not a list of
// names known accepts.
func checkNames(proc *Process, key string, known func(string) bool) error {
	v, ok := proc.Properties[key]
	if !ok {
		return nil
	}
	if len(v.Names) == 0 {
		return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("process %q property %s must list names", proc.Name, key)}
	}
	for _, name := range v.Names {
		if !known(name) {
			return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("process %q property %s: unknown name %q", proc.Name, key, name)}
		}
	}
	return nil
}

// checkAccount rejects a process on Linux without a Linux_Account, and a
// Linux_Account that is not a (uid, gid) pair of ids in 0..MaxInt32.
func checkAccount(proc *Process) error {
	v, ok := proc.Properties["linux_account"]
	msg := ""
	switch {
	case !ok && proc.OnKernel("linux"):
		msg = "is on linux but has no Linux_Account property"
	case ok && len(v.List) != 2:
		msg = "property linux_account must be a (uid, gid) pair"
	case ok && (min(v.List[0], v.List[1]) < 0 || max(v.List[0], v.List[1]) > math.MaxInt32):
		msg = fmt.Sprintf("Linux_Account %v out of range", v.List)
	default:
		return nil
	}
	return &SemanticError{Line: proc.Line, Msg: fmt.Sprintf("process %q %s", proc.Name, msg)}
}

// syscallKind maps a Syscalls name to the PM server's audited service.
func syscallKind(name string) (core.SyscallKind, bool) {
	for k := core.SysFork; k <= core.SysSetACID; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// resolvePort maps a PortRef to its declared port.
func resolvePort(pkg *Package, sys *SystemImpl, ref PortRef, line int) (Port, error) {
	sub, ok := sys.Sub(ref.Component)
	if !ok {
		return Port{}, &SemanticError{Line: line, Msg: fmt.Sprintf("unknown subcomponent %q", ref.Component)}
	}
	proc, _ := pkg.Process(sub.ProcessType)
	port, ok := proc.Port(ref.Port)
	if !ok {
		return Port{}, &SemanticError{Line: line, Msg: fmt.Sprintf("process %q has no port %q", sub.ProcessType, ref.Port)}
	}
	return port, nil
}
