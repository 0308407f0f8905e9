package aadl

import (
	"fmt"
	"slices"
)

// PortDirection is an AADL port direction.
type PortDirection int

// Port directions.
const (
	DirIn PortDirection = iota + 1
	DirOut
)

// String renders "in"/"out".
func (d PortDirection) String() string {
	if d == DirIn {
		return "in"
	}
	return "out"
}

// Port is one feature of a process: "name: in|out event data port;".
type Port struct {
	Name      string
	Direction PortDirection
	Line      int
}

// PropValue is a property association value: a number, a list of numbers,
// or a list of names ("(fork, exec)"), lower-cased.
type PropValue struct {
	Number int64
	List   []int64
	Names  []string
	IsList bool
}

// Process is an AADL process type declaration.
type Process struct {
	Name       string
	Ports      []Port
	Properties map[string]PropValue
	Line       int
}

// Port finds a feature by name.
func (p *Process) Port(name string) (Port, bool) {
	for _, port := range p.Ports {
		if port.Name == name {
			return port, true
		}
	}
	return Port{}, false
}

// ACID returns the process's AC_ID property (0 if absent).
func (p *Process) ACID() int64 {
	if v, ok := p.Properties["ac_id"]; ok && !v.IsList {
		return v.Number
	}
	return 0
}

// Syscalls returns the process's Syscalls property: the audited kernel
// services the MINIX PM server grants it ("fork", "exec", "kill",
// "set_acid").
func (p *Process) Syscalls() []string { return p.Properties["syscalls"].Names }

// Priority returns the process's Priority property, its scheduling priority
// on every kernel (0 if absent).
func (p *Process) Priority() int { return int(p.Properties["priority"].Number) }

// Origin returns the process's Origin property, the provenance label the
// online policy monitor certifies it at; empty if absent.
func (p *Process) Origin() string {
	if names := p.Properties["origin"].Names; len(names) == 1 {
		return names[0]
	}
	return ""
}

// Devices returns the process's Devices property: the room devices it may
// touch.
func (p *Process) Devices() []string { return p.Properties["devices"].Names }

// OnKernel reports whether kernel's policy artifact includes the process:
// the Kernels property names the kernels that do ("minix", "sel4",
// "linux"), and a process without one is on every kernel.
func (p *Process) OnKernel(kernel string) bool {
	v, ok := p.Properties["kernels"]
	return !ok || slices.Contains(v.Names, kernel)
}

// Subcomponent is one process instance inside a system implementation.
type Subcomponent struct {
	Name        string
	ProcessType string
	Line        int
}

// PortRef addresses "component.port".
type PortRef struct {
	Component string
	Port      string
}

// String renders "comp.port".
func (r PortRef) String() string { return r.Component + "." + r.Port }

// Connection is a directional port connection with optional properties
// (message types the connection may carry).
type Connection struct {
	Label      string
	Src        PortRef
	Dst        PortRef
	Properties map[string]PropValue
	Line       int
}

// MessageTypes returns the connection's permitted message types from the
// Message_Type / Message_Types property; nil when unset.
func (c *Connection) MessageTypes() []int64 {
	if v, ok := c.Properties["message_types"]; ok {
		if v.IsList {
			return v.List
		}
		return []int64{v.Number}
	}
	if v, ok := c.Properties["message_type"]; ok {
		if v.IsList {
			return v.List
		}
		return []int64{v.Number}
	}
	return nil
}

// SystemImpl is "system implementation name.impl ... end name.impl;".
type SystemImpl struct {
	Name          string // "name.impl" combined
	Subcomponents []Subcomponent
	Connections   []Connection
	Line          int
}

// Sub finds a subcomponent by instance name.
func (s *SystemImpl) Sub(name string) (Subcomponent, bool) {
	for _, sub := range s.Subcomponents {
		if sub.Name == name {
			return sub, true
		}
	}
	return Subcomponent{}, false
}

// Package is one parsed AADL package.
type Package struct {
	Name      string
	Processes []Process
	Systems   []SystemImpl
}

// Process finds a process type by name.
func (p *Package) Process(name string) (*Process, bool) {
	for i := range p.Processes {
		if p.Processes[i].Name == name {
			return &p.Processes[i], true
		}
	}
	return nil, false
}

// System finds a system implementation by name.
func (p *Package) System(name string) (*SystemImpl, bool) {
	for i := range p.Systems {
		if p.Systems[i].Name == name {
			return &p.Systems[i], true
		}
	}
	return nil, false
}

// SemanticError reports a model-level problem.
type SemanticError struct {
	Line int
	Msg  string
}

func (e *SemanticError) Error() string {
	return fmt.Sprintf("aadl: line %d: %s", e.Line, e.Msg)
}
