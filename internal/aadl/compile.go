package aadl

import (
	"fmt"
	"sort"
	"strings"

	"mkbas/internal/core"
)

// GenerateACM compiles a system implementation into the access control
// matrix: one Allow cell per connection (with its declared message types)
// plus the acknowledgment convention in both directions between every
// connected pair, exactly as the scenario policy is written by hand.
func GenerateACM(pkg *Package, sysName string) (*core.Matrix, error) {
	sys, ok := pkg.System(sysName)
	if !ok {
		return nil, fmt.Errorf("aadl: no system implementation %q", sysName)
	}
	m := core.NewMatrix()
	for _, sub := range sys.Subcomponents {
		proc, _ := pkg.Process(sub.ProcessType)
		m.Name(core.ACID(proc.ACID()), sub.Name)
	}
	for _, conn := range sys.Connections {
		src, dst, err := connACIDs(pkg, sys, conn)
		if err != nil {
			return nil, err
		}
		types := conn.MessageTypes()
		if len(types) == 0 {
			return nil, &SemanticError{Line: conn.Line, Msg: fmt.Sprintf("connection %q declares no message types", conn.Label)}
		}
		for _, mt := range types {
			m.Allow(src, dst, core.MsgType(mt))
		}
		m.AllowBidirectionalAck(src, dst)
	}
	return m.Seal(), nil
}

// connACIDs resolves a connection's endpoint identities.
func connACIDs(pkg *Package, sys *SystemImpl, conn Connection) (core.ACID, core.ACID, error) {
	srcSub, ok := sys.Sub(conn.Src.Component)
	if !ok {
		return 0, 0, &SemanticError{Line: conn.Line, Msg: fmt.Sprintf("unknown subcomponent %q", conn.Src.Component)}
	}
	dstSub, ok := sys.Sub(conn.Dst.Component)
	if !ok {
		return 0, 0, &SemanticError{Line: conn.Line, Msg: fmt.Sprintf("unknown subcomponent %q", conn.Dst.Component)}
	}
	srcProc, _ := pkg.Process(srcSub.ProcessType)
	dstProc, _ := pkg.Process(dstSub.ProcessType)
	return core.ACID(srcProc.ACID()), core.ACID(dstProc.ACID()), nil
}

// GenerateC renders the matrix as the C source the authors' AADL→C compiler
// produced and compiled "together with kernel binary". The output is
// deterministic.
func GenerateC(pkg *Package, sysName string) (string, error) {
	m, err := GenerateACM(pkg, sysName)
	if err != nil {
		return "", err
	}
	subjects := m.Subjects()
	type row struct {
		src, dst core.ACID
		mask     core.TypeMask
	}
	var rows []row
	for _, src := range subjects {
		for _, dst := range subjects {
			if mask := m.Mask(src, dst); mask != 0 {
				rows = append(rows, row{src: src, dst: dst, mask: mask})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].src != rows[j].src {
			return rows[i].src < rows[j].src
		}
		return rows[i].dst < rows[j].dst
	})

	var b strings.Builder
	fmt.Fprintf(&b, "/* Generated by bas aadl from package %s, system %s. DO NOT EDIT. */\n", pkg.Name, sysName)
	b.WriteString("#include \"acm.h\"\n\n")
	fmt.Fprintf(&b, "#define ACM_NR_RULES %d\n\n", len(rows))
	b.WriteString("/* src ac_id, dst ac_id, permitted m_type bitmask (bit n = m_type n) */\n")
	b.WriteString("const struct acm_rule acm_table[ACM_NR_RULES] = {\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "\t{ %du, %du, 0x%xULL }, /* %s -> %s : %s */\n",
			r.src, r.dst, uint64(r.mask), m.NameOf(r.src), m.NameOf(r.dst), r.mask)
	}
	b.WriteString("};\n")
	return b.String(), nil
}

// CamkesTopology is the structural output of the AADL→CAmkES compiler: who
// provides what, who uses what, and which connections exist. Behaviour
// (handlers, run functions) is attached by application code, exactly as
// CAmkES glue is joined with user components.
type CamkesTopology struct {
	// Components maps instance name to its interface lists.
	Components map[string]*CamkesComponentSpec
	// Connections are seL4RPCCall connections.
	Connections []CamkesConnectionSpec
}

// CamkesComponentSpec lists one component's interfaces.
type CamkesComponentSpec struct {
	Uses     []string // its own out-port names
	Provides []string // its own in-port names
}

// CamkesConnectionSpec is one seL4RPCCall connection in port terms.
type CamkesConnectionSpec struct {
	Label     string
	FromComp  string
	FromIface string
	ToComp    string
	ToIface   string
}

// GenerateCAmkES compiles a system implementation into a CAmkES topology:
// every AADL port connection becomes a seL4RPCCall connection, the source
// port a uses-interface and the destination port a provides-interface.
func GenerateCAmkES(pkg *Package, sysName string) (*CamkesTopology, error) {
	sys, ok := pkg.System(sysName)
	if !ok {
		return nil, fmt.Errorf("aadl: no system implementation %q", sysName)
	}
	topo := &CamkesTopology{Components: make(map[string]*CamkesComponentSpec)}
	for _, sub := range sys.Subcomponents {
		topo.Components[sub.Name] = &CamkesComponentSpec{}
	}
	for _, conn := range sys.Connections {
		from := topo.Components[conn.Src.Component]
		to := topo.Components[conn.Dst.Component]
		if from == nil || to == nil {
			return nil, &SemanticError{Line: conn.Line, Msg: fmt.Sprintf("connection %q references unknown subcomponent", conn.Label)}
		}
		appendUnique(&from.Uses, conn.Src.Port)
		appendUnique(&to.Provides, conn.Dst.Port)
		topo.Connections = append(topo.Connections, CamkesConnectionSpec{
			Label:     conn.Label,
			FromComp:  conn.Src.Component,
			FromIface: conn.Src.Port,
			ToComp:    conn.Dst.Component,
			ToIface:   conn.Dst.Port,
		})
	}
	return topo, nil
}

func appendUnique(list *[]string, s string) {
	for _, x := range *list {
		if x == s {
			return
		}
	}
	*list = append(*list, s)
}

// RenderCAmkES renders the topology as CAmkES ADL text.
func (t *CamkesTopology) RenderCAmkES(sysName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* Generated from AADL system %s. DO NOT EDIT. */\n", sysName)
	b.WriteString("assembly {\n    composition {\n")
	names := make([]string, 0, len(t.Components))
	for name := range t.Components {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "        component %s %s;\n", componentTypeName(name), name)
	}
	b.WriteByte('\n')
	for _, conn := range t.Connections {
		fmt.Fprintf(&b, "        connection seL4RPCCall %s(from %s.%s, to %s.%s);\n",
			conn.Label, conn.FromComp, conn.FromIface, conn.ToComp, conn.ToIface)
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// componentTypeName derives a CamelCase type name from an instance name.
func componentTypeName(instance string) string {
	if instance == "" {
		return "Component"
	}
	return strings.ToUpper(instance[:1]) + instance[1:]
}
