package aadl

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mkbas/internal/core"
	"mkbas/internal/linuxsim"
	"mkbas/internal/polcheck"
)

// kernelView returns the part of system sysName that kernel's policy
// artifact covers: the subcomponents whose process is on kernel, less those
// omit names (optional processes a deployment leaves out), each mapped to
// its process, and the connections between them.
func kernelView(pkg *Package, sysName, kernel string, omit []string) (*SystemImpl, map[string]*Process, error) {
	sys, ok := pkg.System(sysName)
	if !ok {
		return nil, nil, fmt.Errorf("aadl: no system implementation %q", sysName)
	}
	view, procs := &SystemImpl{Name: sys.Name, Line: sys.Line}, make(map[string]*Process)
	for _, sub := range sys.Subcomponents {
		if proc, _ := pkg.Process(sub.ProcessType); proc.OnKernel(kernel) && !slices.Contains(omit, sub.Name) {
			view.Subcomponents, procs[sub.Name] = append(view.Subcomponents, sub), proc
		}
	}
	for _, conn := range sys.Connections {
		if procs[conn.Src.Component] != nil && procs[conn.Dst.Component] != nil {
			view.Connections = append(view.Connections, conn)
		}
	}
	return view, procs, nil
}

// GenerateACM compiles a system implementation into the MINIX access
// control matrix: every subcomponent on MINIX named by its AC_ID, one Allow
// cell per connection (with its declared message types), and the
// acknowledgment convention in both directions between every connected
// pair. omit names optional subcomponents to leave out.
func GenerateACM(pkg *Package, sysName string, omit ...string) (*core.Matrix, error) {
	sys, procs, err := kernelView(pkg, sysName, "minix", omit)
	if err != nil {
		return nil, err
	}
	m := core.NewMatrix()
	for _, sub := range sys.Subcomponents {
		m.Name(core.ACID(procs[sub.Name].ACID()), sub.Name)
	}
	for _, conn := range sys.Connections {
		src, dst := core.ACID(procs[conn.Src.Component].ACID()), core.ACID(procs[conn.Dst.Component].ACID())
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

// GenerateSyscalls compiles the Syscalls properties of a system
// implementation's processes on MINIX into the PM server's audited-service
// grants, each without a budget, leaving out the subcomponents omit names.
// The grants come back unsealed, so a deployment can budget one (E8's fork
// quota) before it seals them.
func GenerateSyscalls(pkg *Package, sysName string, omit ...string) (*core.SyscallPolicy, error) {
	sys, procs, err := kernelView(pkg, sysName, "minix", omit)
	if err != nil {
		return nil, err
	}
	s := core.NewSyscallPolicy()
	for _, sub := range sys.Subcomponents {
		for _, name := range procs[sub.Name].Syscalls() {
			kind, _ := syscallKind(name) // analyze rejected unknown names
			s.Grant(core.ACID(procs[sub.Name].ACID()), kind)
		}
	}
	return s, nil
}

// GeneratePolicy compiles a system implementation's whole MINIX policy,
// sealed: GenerateACM's matrix and GenerateSyscalls' PM grants. The static
// analyzer and the linter read it, so a process whose authority is all PM
// grants (a loader that forks, execs and kills) is seen with it.
func GeneratePolicy(pkg *Package, sysName string, omit ...string) (*core.Policy, error) {
	m, err := GenerateACM(pkg, sysName, omit...)
	if err != nil {
		return nil, err
	}
	grants, err := GenerateSyscalls(pkg, sysName, omit...)
	if err != nil {
		return nil, err
	}
	return (&core.Policy{IPC: m, Syscalls: grants}).Seal(), nil
}

// DAC is the Linux DAC policy a system implementation compiles to.
type DAC struct {
	// Subjects are the processes on Linux under their accounts, in
	// subcomponent order.
	Subjects []polcheck.DACSubject
	// Queues are the connected in-ports, in connection order.
	Queues []DACQueue
}

// DACQueue is the queue pair behind one in-port, both owned by the port's
// process: Mode is the request queue's, which the port's peers write, and
// ReplyMode the reply queue's, on which a server answers them.
type DACQueue struct {
	Port            PortRef
	Owner           polcheck.DACSubject
	Peers           []string // in connection order
	Mode, ReplyMode linuxsim.Mode
}

// GenerateDAC compiles a system implementation into the Linux DAC policy:
// every subcomponent on Linux runs under its Linux_Account, and each
// connected in-port gets a queue pair. omit names optional subcomponents to
// leave out.
func GenerateDAC(pkg *Package, sysName string, omit ...string) (*DAC, error) {
	sys, procs, err := kernelView(pkg, sysName, "linux", omit)
	if err != nil {
		return nil, err
	}
	d := &DAC{}
	for _, sub := range sys.Subcomponents {
		acct := procs[sub.Name].Properties["linux_account"].List // analyze checked the pair
		d.Subjects = append(d.Subjects, polcheck.DACSubject{Name: sub.Name, UID: int(acct[0]), GID: int(acct[1])})
	}
	for _, conn := range sys.Connections {
		i := slices.IndexFunc(d.Queues, func(q DACQueue) bool { return q.Port == conn.Dst })
		if i < 0 {
			i, d.Queues = len(d.Queues), append(d.Queues, DACQueue{Port: conn.Dst})
		}
		d.Queues[i].Peers = append(d.Queues[i].Peers, conn.Src.Component)
	}
	d.setModes()
	return d, nil
}

// Under returns the policy with every process under the one account
// uid:gid and the modes derived again: a deployment that runs everything
// as one user.
func (d *DAC) Under(uid, gid int) *DAC {
	u := &DAC{Subjects: slices.Clone(d.Subjects), Queues: slices.Clone(d.Queues)}
	for i := range u.Subjects {
		u.Subjects[i].UID, u.Subjects[i].GID = uid, gid
	}
	u.setModes()
	return u
}

// Subject returns the named process under its account.
func (d *DAC) Subject(name string) polcheck.DACSubject {
	i := slices.IndexFunc(d.Subjects, func(s polcheck.DACSubject) bool { return s.Name == name })
	if i < 0 {
		return polcheck.DACSubject{}
	}
	return d.Subjects[i]
}

// setModes derives each queue's owner and modes from the accounts by one
// rule: the owner gets rw, and each peer outside the owner's uid adds one
// bit, group write (request) or read (reply) for a peer in the owner's
// group, other write or read for one outside it.
func (d *DAC) setModes() {
	for i := range d.Queues {
		q := &d.Queues[i]
		q.Owner, q.Mode, q.ReplyMode = d.Subject(q.Port.Component), 0o600, 0o600
		for _, name := range q.Peers {
			switch peer := d.Subject(name); {
			case peer.UID == q.Owner.UID:
			case peer.GID == q.Owner.GID:
				q.Mode, q.ReplyMode = q.Mode|linuxsim.ModeGroupWrite, q.ReplyMode|linuxsim.ModeGroupRead
			default:
				q.Mode, q.ReplyMode = q.Mode|linuxsim.ModeOtherWrite, q.ReplyMode|linuxsim.ModeOtherRead
			}
		}
	}
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
	// Components are the component instances in subcomponent order.
	Components []*CamkesComponentSpec
	// Connections are seL4RPCCall connections, in model order.
	Connections []CamkesConnectionSpec
}

// Component finds a component by instance name.
func (t *CamkesTopology) Component(name string) (*CamkesComponentSpec, bool) {
	for _, c := range t.Components {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// CamkesComponentSpec lists one component's interfaces.
type CamkesComponentSpec struct {
	Name     string   // instance name
	Uses     []string // its own out-port names, in connection order
	Provides []string // its own in-port names, in connection order
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
// every subcomponent on seL4 becomes a component, every AADL port
// connection between two of them a seL4RPCCall connection, the source port
// a uses-interface and the destination port a provides-interface. omit
// names optional subcomponents to leave out.
func GenerateCAmkES(pkg *Package, sysName string, omit ...string) (*CamkesTopology, error) {
	sys, _, err := kernelView(pkg, sysName, "sel4", omit)
	if err != nil {
		return nil, err
	}
	topo := &CamkesTopology{}
	for _, sub := range sys.Subcomponents {
		topo.Components = append(topo.Components, &CamkesComponentSpec{Name: sub.Name})
	}
	for _, conn := range sys.Connections {
		from, _ := topo.Component(conn.Src.Component)
		to, _ := topo.Component(conn.Dst.Component)
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
	for _, c := range t.Components {
		fmt.Fprintf(&b, "        component %s %s;\n", componentTypeName(c.Name), c.Name)
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
