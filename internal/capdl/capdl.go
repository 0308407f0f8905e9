// Package capdl implements a CapDL-style capability distribution language
// (Kuz et al. [13], used by CAmkES to describe "the state of all the
// capabilities after bootstrap").
//
// A Spec lists kernel objects and, per thread, the exact capabilities each
// CSpace slot holds. Specs are produced by the CAmkES builder
// (internal/camkes) and verified against a booted internal/sel4 kernel —
// the analogue of the paper's machine-checked CapDL file ("we expect this
// file to be correct; for high-assurance systems this file can also be
// machine verified").
//
// Verification is exact in both directions: a capability present in the
// kernel but absent from the spec is a violation (that is precisely the bug
// class the attacker hopes for), as is the reverse.
package capdl

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mkbas/internal/sel4"
)

// ObjSpec declares one named kernel object.
type ObjSpec struct {
	Name string
	Kind sel4.ObjKind
}

// CapSpec declares one slot of one thread's CSpace.
type CapSpec struct {
	Slot   sel4.CPtr
	Object string
	Rights sel4.Rights
	Badge  sel4.Badge
}

// TCBSpec declares a thread and its full capability distribution.
type TCBSpec struct {
	Name string
	Caps []CapSpec
}

// Spec is a complete capability-distribution description.
type Spec struct {
	Objects []ObjSpec
	TCBs    []TCBSpec
}

// Errors.
var (
	ErrParse  = errors.New("capdl: parse error")
	ErrVerify = errors.New("capdl: capability distribution mismatch")
)

// AddObject appends an object declaration.
func (s *Spec) AddObject(name string, kind sel4.ObjKind) {
	s.Objects = append(s.Objects, ObjSpec{Name: name, Kind: kind})
}

// AddCap appends a capability to a thread (creating the TCB entry on first
// use).
func (s *Spec) AddCap(tcbName string, cap CapSpec) {
	for i := range s.TCBs {
		if s.TCBs[i].Name == tcbName {
			s.TCBs[i].Caps = append(s.TCBs[i].Caps, cap)
			return
		}
	}
	s.TCBs = append(s.TCBs, TCBSpec{Name: tcbName, Caps: []CapSpec{cap}})
}

// TCB returns the spec for one thread, or nil.
func (s *Spec) TCB(name string) *TCBSpec {
	for i := range s.TCBs {
		if s.TCBs[i].Name == name {
			return &s.TCBs[i]
		}
	}
	return nil
}

// Render serialises the spec in the textual CapDL-like format. The output is
// deterministic: objects and threads sort by name, caps by slot.
func (s *Spec) Render() string {
	var b strings.Builder
	b.WriteString("objects {\n")
	objs := make([]ObjSpec, len(s.Objects))
	copy(objs, s.Objects)
	sort.Slice(objs, func(i, j int) bool { return objs[i].Name < objs[j].Name })
	for _, o := range objs {
		fmt.Fprintf(&b, "  %s = %v\n", o.Name, o.Kind)
	}
	b.WriteString("}\ncaps {\n")
	tcbs := make([]TCBSpec, len(s.TCBs))
	copy(tcbs, s.TCBs)
	sort.Slice(tcbs, func(i, j int) bool { return tcbs[i].Name < tcbs[j].Name })
	for _, t := range tcbs {
		fmt.Fprintf(&b, "  %s {\n", t.Name)
		caps := make([]CapSpec, len(t.Caps))
		copy(caps, t.Caps)
		sort.Slice(caps, func(i, j int) bool { return caps[i].Slot < caps[j].Slot })
		for _, c := range caps {
			fmt.Fprintf(&b, "    %d: %s (%v, badge: %d)\n", c.Slot, c.Object, c.Rights, c.Badge)
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// Parse reads the Render format back into a Spec. Section headers are
// recognised only between sections, so a thread may be named objects or
// caps; a slot must be a decimal CPtr.
func Parse(text string) (*Spec, error) {
	s := &Spec{}
	const (
		secNone = iota
		secObjects
		secCaps
	)
	section := secNone
	var curTCB string
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case section == secNone && line == "objects {":
			section = secObjects
		case section == secNone && line == "caps {":
			section = secCaps
		case line == "}":
			if curTCB != "" && section == secCaps {
				curTCB = ""
				continue
			}
			section = secNone
		case section == secObjects:
			name, kindStr, ok := strings.Cut(line, " = ")
			if !ok {
				return nil, fmt.Errorf("%w: line %d: %q", ErrParse, lineNo+1, line)
			}
			kind, err := parseKind(strings.TrimSpace(kindStr))
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrParse, lineNo+1, err)
			}
			s.AddObject(strings.TrimSpace(name), kind)
		case section == secCaps && strings.HasSuffix(line, "{"):
			curTCB = strings.TrimSpace(strings.TrimSuffix(line, "{"))
		case section == secCaps && curTCB != "":
			cap, err := parseCapLine(line)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrParse, lineNo+1, err)
			}
			s.AddCap(curTCB, cap)
		default:
			return nil, fmt.Errorf("%w: line %d: unexpected %q", ErrParse, lineNo+1, line)
		}
	}
	return s, nil
}

func parseKind(s string) (sel4.ObjKind, error) {
	for _, k := range []sel4.ObjKind{
		sel4.KindEndpoint, sel4.KindTCB, sel4.KindDevice, sel4.KindNetPort, sel4.KindReply,
		sel4.KindNotification,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

// parseCapLine parses "1: obj (rwg, badge: 104)".
func parseCapLine(line string) (CapSpec, error) {
	slotStr, rest, ok := strings.Cut(line, ":")
	if !ok {
		return CapSpec{}, fmt.Errorf("no slot separator in %q", line)
	}
	slot, err := strconv.ParseUint(strings.TrimSpace(slotStr), 10, 32)
	if err != nil {
		return CapSpec{}, fmt.Errorf("bad slot in %q", line)
	}
	rest = strings.TrimSpace(rest)
	objName, attrs, ok := strings.Cut(rest, "(")
	if !ok {
		return CapSpec{}, fmt.Errorf("no attributes in %q", line)
	}
	attrs = strings.TrimSuffix(strings.TrimSpace(attrs), ")")
	parts := strings.Split(attrs, ",")
	if len(parts) != 2 {
		return CapSpec{}, fmt.Errorf("want rights and badge in %q", line)
	}
	rights, err := parseRights(strings.TrimSpace(parts[0]))
	if err != nil {
		return CapSpec{}, err
	}
	badgeStr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(parts[1]), "badge:"))
	badge, err := strconv.ParseUint(badgeStr, 10, 64)
	if err != nil {
		return CapSpec{}, fmt.Errorf("bad badge in %q", line)
	}
	return CapSpec{
		Slot:   sel4.CPtr(slot),
		Object: strings.TrimSpace(objName),
		Rights: rights,
		Badge:  sel4.Badge(badge),
	}, nil
}

func parseRights(s string) (sel4.Rights, error) {
	if len(s) != 3 {
		return 0, fmt.Errorf("bad rights %q", s)
	}
	var r sel4.Rights
	switch s[0] {
	case 'r':
		r |= sel4.CapRead
	case '-':
	default:
		return 0, fmt.Errorf("bad rights %q", s)
	}
	switch s[1] {
	case 'w':
		r |= sel4.CapWrite
	case '-':
	default:
		return 0, fmt.Errorf("bad rights %q", s)
	}
	switch s[2] {
	case 'g':
		r |= sel4.CapGrant
	case '-':
	default:
		return 0, fmt.Errorf("bad rights %q", s)
	}
	return r, nil
}

// Binding maps spec names to the booted kernel's object and thread IDs; the
// builder that created both provides it.
type Binding struct {
	Objects map[string]sel4.ObjID
	TCBs    map[string]sel4.ObjID
}

// Verify checks a booted kernel's actual capability distribution against the
// spec, exactly: every spec'd cap must exist with identical rights and
// badge, and no thread may hold any capability the spec does not mention.
func Verify(spec *Spec, k *sel4.Kernel, bind Binding) error {
	var problems []string
	for _, tcbSpec := range spec.TCBs {
		tcbID, ok := bind.TCBs[tcbSpec.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("thread %q not bound", tcbSpec.Name))
			continue
		}
		actual, err := k.CapsOf(tcbID)
		if err != nil {
			problems = append(problems, fmt.Sprintf("thread %q: %v", tcbSpec.Name, err))
			continue
		}
		want := make(map[sel4.CPtr]CapSpec, len(tcbSpec.Caps))
		for _, c := range tcbSpec.Caps {
			want[c.Slot] = c
		}
		for slot, got := range actual {
			spec, expected := want[sel4.CPtr(slot)]
			switch {
			case got.IsNull() && !expected:
				continue
			case got.IsNull() && expected:
				problems = append(problems, fmt.Sprintf(
					"%s slot %d: missing %s", tcbSpec.Name, slot, spec.Object))
			case !got.IsNull() && !expected:
				problems = append(problems, fmt.Sprintf(
					"%s slot %d: EXTRA capability %v", tcbSpec.Name, slot, got))
			default:
				objID, okObj := bind.Objects[spec.Object]
				if !okObj {
					problems = append(problems, fmt.Sprintf(
						"%s slot %d: object %q not bound", tcbSpec.Name, slot, spec.Object))
					continue
				}
				if got.Object != objID || got.Rights != spec.Rights || got.Badge != spec.Badge {
					problems = append(problems, fmt.Sprintf(
						"%s slot %d: have %v, want %s (%v, badge: %d)",
						tcbSpec.Name, slot, got, spec.Object, spec.Rights, spec.Badge))
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w:\n  %s", ErrVerify, strings.Join(problems, "\n  "))
	}
	return nil
}
