package polcheck

import (
	"fmt"
	"sort"
	"strings"

	"mkbas/internal/capdl"
	"mkbas/internal/core"
	"mkbas/internal/linuxsim"
	"mkbas/internal/sel4"
)

// NodeKind classifies an access-graph node.
type NodeKind int

// Node kinds.
const (
	// KindSubject is an active entity: a process, component, or thread
	// group.
	KindSubject NodeKind = iota + 1
	// KindChannel is an IPC conduit: an seL4 endpoint or a POSIX message
	// queue. MINIX has no channel objects — its matrix cells are direct
	// subject→subject edges.
	KindChannel
	// KindDevice is a hardware resource: a device register file or a
	// network port.
	KindDevice
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindSubject:
		return "subject"
	case KindChannel:
		return "channel"
	case KindDevice:
		return "device"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one access-graph vertex, identified by kind and name.
type Node struct {
	Kind NodeKind
	Name string
}

// Subject builds a subject node.
func Subject(name string) Node { return Node{Kind: KindSubject, Name: name} }

// Channel builds a channel node.
func Channel(name string) Node { return Node{Kind: KindChannel, Name: name} }

// Device builds a device node.
func Device(name string) Node { return Node{Kind: KindDevice, Name: name} }

func (n Node) String() string { return n.Kind.String() + ":" + n.Name }

// Edge is one directed flow grant: data may move From → To. Labels carry
// the rights justifying the edge ("mt4" for an ACM message type, "send",
// "recv", "write", "read"); Origin records provenance for reports.
type Edge struct {
	From   Node
	To     Node
	Labels []string
	Origin string
}

// Graph is the unified directed access graph every policy source normalises
// into.
type Graph struct {
	// Platform labels the source formalism for reports ("minix-acm",
	// "sel4-capdl", "linux-dac").
	Platform string

	nodes map[Node]struct{}
	out   map[Node]map[Node]*Edge
	kills map[string]map[string]string // src → dst → origin
}

// NewGraph returns an empty graph for a platform.
func NewGraph(platform string) *Graph {
	return &Graph{
		Platform: platform,
		nodes:    make(map[Node]struct{}),
		out:      make(map[Node]map[Node]*Edge),
		kills:    make(map[string]map[string]string),
	}
}

// AddNode registers a node without edges (used for subjects that hold no
// authority, so lint can flag them).
func (g *Graph) AddNode(n Node) { g.nodes[n] = struct{}{} }

// HasNode reports whether n is in the graph.
func (g *Graph) HasNode(n Node) bool {
	_, ok := g.nodes[n]
	return ok
}

// AddFlow adds (or merges labels into) the flow edge from → to.
func (g *Graph) AddFlow(from, to Node, labels []string, origin string) {
	g.AddNode(from)
	g.AddNode(to)
	row, ok := g.out[from]
	if !ok {
		row = make(map[Node]*Edge)
		g.out[from] = row
	}
	e, ok := row[to]
	if !ok {
		e = &Edge{From: from, To: to, Origin: origin}
		row[to] = e
	}
	e.Labels = mergeLabels(e.Labels, labels)
}

// AddKill records that src may destroy dst.
func (g *Graph) AddKill(src, dst, origin string) {
	g.AddNode(Subject(src))
	g.AddNode(Subject(dst))
	row, ok := g.kills[src]
	if !ok {
		row = make(map[string]string)
		g.kills[src] = row
	}
	if _, dup := row[dst]; !dup {
		row[dst] = origin
	}
}

// CanKill reports whether src holds destroy authority over dst, and its
// provenance.
func (g *Graph) CanKill(src, dst string) (string, bool) {
	origin, ok := g.kills[src][dst]
	return origin, ok
}

// Nodes returns every node, subjects first, then channels, then devices,
// each group sorted by name.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Subjects returns every subject name, sorted.
func (g *Graph) Subjects() []string {
	var out []string
	for n := range g.nodes {
		if n.Kind == KindSubject {
			out = append(out, n.Name)
		}
	}
	sort.Strings(out)
	return out
}

// FlowsFrom returns n's outgoing flow edges sorted by destination.
func (g *Graph) FlowsFrom(n Node) []*Edge {
	row := g.out[n]
	out := make([]*Edge, 0, len(row))
	for _, e := range row {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].To.Kind != out[j].To.Kind {
			return out[i].To.Kind < out[j].To.Kind
		}
		return out[i].To.Name < out[j].To.Name
	})
	return out
}

// SendTargets returns the distinct IPC destinations a subject can reach in
// one hop: channel nodes it may send into plus subjects it may message
// directly. Devices and network ports do not count — OnlyEndpoint is a
// statement about IPC authority, the paper's "the web interface has only one
// capability, to communicate with the temperature controller process".
func (g *Graph) SendTargets(subject string) []Node {
	var out []Node
	for _, e := range g.FlowsFrom(Subject(subject)) {
		if e.To.Kind == KindChannel || e.To.Kind == KindSubject {
			out = append(out, e.To)
		}
	}
	return out
}

// mergeLabels unions two sorted-or-not label sets into a sorted unique set.
func mergeLabels(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, set := range [2][]string{a, b} {
		for _, l := range set {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Strings(out)
	return out
}

// --- MINIX ACM ---

// FromMatrix normalises an access control matrix: every populated cell
// becomes a direct subject→subject flow edge labelled with its message
// types ("mt*" for an all-types grant).
func FromMatrix(m *core.Matrix) *Graph {
	g := NewGraph("minix-acm")
	for _, id := range m.Subjects() {
		g.AddNode(Subject(m.NameOf(id)))
	}
	for _, src := range m.Subjects() {
		for _, dst := range m.Subjects() {
			mask := m.Mask(src, dst)
			if mask == 0 {
				continue
			}
			var labels []string
			if mask == core.MaskAll {
				labels = []string{"mt*"}
			} else {
				for _, t := range mask.Types() {
					labels = append(labels, fmt.Sprintf("mt%d", t))
				}
			}
			g.AddFlow(Subject(m.NameOf(src)), Subject(m.NameOf(dst)), labels,
				fmt.Sprintf("acm cell %d->%d mask %s", src, dst, mask))
		}
	}
	return g
}

// FromPolicy is FromMatrix plus the audited-syscall surface: a subject
// granted the kill service holds destroy authority over every other subject
// (MINIX kill is not per-target).
func FromPolicy(p *core.Policy) *Graph {
	g := FromMatrix(p.IPC)
	subjects := g.Subjects()
	for _, id := range p.Syscalls.Subjects() {
		if !p.Syscalls.Rule(id, core.SysKill).Allowed {
			continue
		}
		src := p.IPC.NameOf(id)
		for _, dst := range subjects {
			if dst != src {
				g.AddKill(src, dst, fmt.Sprintf("syscall grant kill to acid %d", id))
			}
		}
	}
	return g
}

// --- seL4 CapDL ---

// CapDLSubjectOf maps a CapDL thread name to its subject. CAmkES generates
// one thread per provided interface plus a control thread, all named
// "component" or "component.iface"; collapsing on the first dot recovers
// the component, which is the unit the paper reasons about.
func CapDLSubjectOf(tcbName string) string {
	if i := strings.IndexByte(tcbName, '.'); i > 0 {
		return tcbName[:i]
	}
	return tcbName
}

// FromCapDL normalises a capability-distribution spec: endpoint write caps
// become subject→channel send edges, endpoint read caps channel→subject
// receive edges, device/netport caps flow edges to device nodes, and TCB
// write caps kill edges (TCB_Suspend is the seL4 "kill").
func FromCapDL(spec *capdl.Spec) *Graph {
	g := NewGraph("sel4-capdl")
	kinds := make(map[string]sel4.ObjKind, len(spec.Objects))
	for _, o := range spec.Objects {
		kinds[o.Name] = o.Kind
	}
	// tcbOwner maps a TCB *object* name to the subject it animates, for
	// kill-edge targets; CAmkES does not distribute TCB caps, but specs
	// under analysis may (that is the attack class being checked for).
	tcbOwner := func(objName string) string {
		return CapDLSubjectOf(strings.TrimPrefix(objName, "tcb_"))
	}
	for _, t := range spec.TCBs {
		subj := Subject(CapDLSubjectOf(t.Name))
		g.AddNode(subj)
		for _, c := range t.Caps {
			origin := fmt.Sprintf("%s slot %d (%v)", t.Name, c.Slot, c.Rights)
			switch kinds[c.Object] {
			case sel4.KindEndpoint:
				ch := Channel(c.Object)
				if c.Rights.Has(sel4.CapWrite) {
					g.AddFlow(subj, ch, []string{"send"}, origin)
				}
				if c.Rights.Has(sel4.CapRead) {
					g.AddFlow(ch, subj, []string{"recv"}, origin)
				}
			case sel4.KindNotification:
				ch := Channel(c.Object)
				if c.Rights.Has(sel4.CapWrite) {
					g.AddFlow(subj, ch, []string{"signal"}, origin)
				}
				if c.Rights.Has(sel4.CapRead) {
					g.AddFlow(ch, subj, []string{"wait"}, origin)
				}
			case sel4.KindTCB:
				if c.Rights.Has(sel4.CapWrite) {
					g.AddKill(subj.Name, tcbOwner(c.Object), origin)
				}
			case sel4.KindDevice, sel4.KindNetPort:
				dev := Device(c.Object)
				if c.Rights.Has(sel4.CapWrite) {
					g.AddFlow(subj, dev, []string{"write"}, origin)
				}
				if c.Rights.Has(sel4.CapRead) {
					g.AddFlow(dev, subj, []string{"read"}, origin)
				}
			}
		}
	}
	return g
}

// --- Linux DAC ---

// DACSubject is one process with its credentials.
type DACSubject struct {
	Name string
	UID  int
	GID  int
}

// DACObject is one DAC-guarded kernel object (message queue or device file).
type DACObject struct {
	Name     string
	OwnerUID int
	OwnerGID int
	Mode     linuxsim.Mode
}

// DACModel is the static description of a Linux deployment: who runs as
// whom, and which queues and device files exist with which permission bits.
type DACModel struct {
	Subjects []DACSubject
	Queues   []DACObject
	Devices  []DACObject
}

// FromDAC normalises a Linux DAC model by asking the kernel's own
// permission predicate (linuxsim.Allowed) the same question it answers at
// runtime, for every subject×object pair: a writable queue becomes a
// subject→channel send edge, a readable one a channel→subject receive edge.
// Kill edges follow kill(2)'s rule: same uid, or uid 0 which bypasses every
// check.
func FromDAC(model *DACModel) *Graph {
	g := NewGraph("linux-dac")
	for _, s := range model.Subjects {
		g.AddNode(Subject(s.Name))
	}
	addObj := func(o DACObject, node Node, sendLabel, recvLabel string) {
		g.AddNode(node)
		for _, s := range model.Subjects {
			origin := fmt.Sprintf("uid=%d gid=%d vs %s owner %d:%d mode %04o",
				s.UID, s.GID, o.Name, o.OwnerUID, o.OwnerGID, uint16(o.Mode))
			if linuxsim.Allowed(s.UID, s.GID, o.OwnerUID, o.OwnerGID, o.Mode, false, true) {
				g.AddFlow(Subject(s.Name), node, []string{sendLabel}, origin)
			}
			if linuxsim.Allowed(s.UID, s.GID, o.OwnerUID, o.OwnerGID, o.Mode, true, false) {
				g.AddFlow(node, Subject(s.Name), []string{recvLabel}, origin)
			}
		}
	}
	for _, q := range model.Queues {
		addObj(q, Channel(q.Name), "send", "recv")
	}
	for _, d := range model.Devices {
		addObj(d, Device(d.Name), "write", "read")
	}
	for _, src := range model.Subjects {
		for _, dst := range model.Subjects {
			if src.Name == dst.Name {
				continue
			}
			switch {
			case src.UID == 0:
				g.AddKill(src.Name, dst.Name, "uid 0 bypasses DAC")
			case src.UID == dst.UID:
				g.AddKill(src.Name, dst.Name, fmt.Sprintf("same uid %d", src.UID))
			}
		}
	}
	return g
}
