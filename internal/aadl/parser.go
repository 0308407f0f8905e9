package aadl

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one AADL package from source text.
func Parse(src string) (*Package, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pkg := p.parsePackage()
	if p.err != nil {
		return nil, p.err
	}
	if err := analyze(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// parser is a recursive-descent parser with a sticky error: the first
// syntax error is recorded and every loop stops on it, so the productions
// read straight through and Parse discards whatever they built after it.
type parser struct {
	toks []token
	pos  int
	err  error
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// more reports whether a list production should read another item: no
// error yet and the next token is an identifier other than the keywords
// that end the list.
func (p *parser) more(stops ...string) bool {
	if p.err != nil || p.peek().kind != tokIdent {
		return false
	}
	for _, kw := range stops {
		if keywordIs(p.peek(), kw) {
			return false
		}
	}
	return true
}

// fail records a syntax error at tok unless one is already recorded.
func (p *parser) fail(tok token, format string, args ...any) {
	if p.err == nil {
		p.err = &SyntaxError{Line: tok.line, Msg: fmt.Sprintf(format, args...)}
	}
}

// expect consumes a token of the given kind.
func (p *parser) expect(kind tokenKind) token {
	t := p.next()
	if t.kind != kind {
		p.fail(t, "expected %v, found %q", kind, t.text)
	}
	return t
}

// expectKeyword consumes a specific keyword identifier.
func (p *parser) expectKeyword(kw string) token {
	t := p.next()
	if !keywordIs(t, kw) {
		p.fail(t, "expected %q, found %q", kw, t.text)
	}
	return t
}

// parsePackage parses "package Name public ... end Name;".
func (p *parser) parsePackage() *Package {
	p.expectKeyword("package")
	pkg := &Package{Name: p.expect(tokIdent).text}
	p.expectKeyword("public")
	for p.err == nil {
		t := p.peek()
		switch {
		case keywordIs(t, "process"):
			pkg.Processes = append(pkg.Processes, p.parseProcess())
		case keywordIs(t, "system"):
			pkg.Systems = append(pkg.Systems, p.parseSystem())
		case keywordIs(t, "end"):
			p.next()
			endName := p.expect(tokIdent)
			if !strings.EqualFold(endName.text, pkg.Name) {
				p.fail(endName, "end %q does not match package %q", endName.text, pkg.Name)
			}
			p.expect(tokSemi)
			p.expect(tokEOF)
			return pkg
		default:
			p.fail(t, "expected process, system, or end; found %q", t.text)
		}
	}
	return pkg
}

// parseProcess parses "process Name [features ...] [properties ...] end Name;".
func (p *parser) parseProcess() Process {
	start := p.expectKeyword("process")
	proc := Process{Name: p.expect(tokIdent).text, Properties: map[string]PropValue{}, Line: start.line}
	if keywordIs(p.peek(), "features") {
		p.next()
		for p.more("properties", "end") {
			proc.Ports = append(proc.Ports, p.parsePort())
		}
	}
	if keywordIs(p.peek(), "properties") {
		p.next()
		for p.more("end") {
			key, val := p.parseProperty()
			proc.Properties[key] = val
		}
	}
	p.parseEnd(proc.Name)
	return proc
}

// parsePort parses "name: in|out event data port;".
func (p *parser) parsePort() Port {
	nameTok := p.expect(tokIdent)
	p.expect(tokColon)
	dirTok := p.next()
	var dir PortDirection
	switch {
	case keywordIs(dirTok, "in"):
		dir = DirIn
	case keywordIs(dirTok, "out"):
		dir = DirOut
	default:
		p.fail(dirTok, "expected in or out, found %q", dirTok.text)
	}
	// "event data port" | "event port" | "data port"
	for keywordIs(p.peek(), "event") || keywordIs(p.peek(), "data") {
		p.next()
	}
	if !keywordIs(p.peek(), "port") {
		p.fail(p.peek(), "expected port category")
	}
	p.next()
	p.expect(tokSemi)
	return Port{Name: nameTok.text, Direction: dir, Line: nameTok.line}
}

// parseProperty parses "Key => value;" where value is a number or a
// parenthesised list of numbers or of names: "(n, n, ...)" or
// "(name, name, ...)". Keys and names are normalised to lower case.
func (p *parser) parseProperty() (string, PropValue) {
	key := p.expect(tokIdent).text
	// Allow namespaced property names like BAS_Properties::AC_ID.
	if p.peek().kind == tokDblColon {
		p.next()
		key = p.expect(tokIdent).text
	}
	p.expect(tokAssoc)
	val := p.parsePropValue()
	p.expect(tokSemi)
	return strings.ToLower(key), val
}

func (p *parser) parsePropValue() PropValue {
	t := p.next()
	switch t.kind {
	case tokNumber:
		return PropValue{Number: p.number(t)}
	case tokLParen:
		v := PropValue{IsList: true}
		for p.err == nil {
			switch item := p.next(); {
			case item.kind == tokNumber && v.Names == nil:
				v.List = append(v.List, p.number(item))
			case item.kind == tokIdent && v.List == nil:
				v.Names = append(v.Names, strings.ToLower(item.text))
			default:
				p.fail(item, "expected a list item like the first, found %q", item.text)
			}
			if sep := p.next(); sep.kind == tokRParen {
				break
			} else if sep.kind != tokComma {
				p.fail(sep, "expected ',' or ')', found %q", sep.text)
			}
		}
		return v
	default:
		p.fail(t, "expected number or list, found %q", t.text)
		return PropValue{}
	}
}

// number parses a number token.
func (p *parser) number(t token) int64 {
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		p.fail(t, "bad number %q", t.text)
	}
	return n
}

// parseSystem parses
// "system implementation Name.Impl [subcomponents ...] [connections ...] end Name.Impl;".
func (p *parser) parseSystem() SystemImpl {
	start := p.expectKeyword("system")
	p.expectKeyword("implementation")
	sys := SystemImpl{Name: p.parseDottedName(), Line: start.line}
	if keywordIs(p.peek(), "subcomponents") {
		p.next()
		for p.more("connections", "end") {
			sys.Subcomponents = append(sys.Subcomponents, p.parseSubcomponent())
		}
	}
	if keywordIs(p.peek(), "connections") {
		p.next()
		for p.more("end") {
			sys.Connections = append(sys.Connections, p.parseConnection())
		}
	}
	p.parseEnd(sys.Name)
	return sys
}

// parseDottedName parses "name" or "name.impl".
func (p *parser) parseDottedName() string {
	name := p.expect(tokIdent).text
	if p.peek().kind == tokDot {
		p.next()
		name += "." + p.expect(tokIdent).text
	}
	return name
}

// parseSubcomponent parses "instance: process TypeName;".
func (p *parser) parseSubcomponent() Subcomponent {
	nameTok := p.expect(tokIdent)
	p.expect(tokColon)
	p.expectKeyword("process")
	typeTok := p.expect(tokIdent)
	p.expect(tokSemi)
	return Subcomponent{Name: nameTok.text, ProcessType: typeTok.text, Line: nameTok.line}
}

// parseConnection parses
// "label: port a.x -> b.y [{ Props }];".
func (p *parser) parseConnection() Connection {
	labelTok := p.expect(tokIdent)
	p.expect(tokColon)
	p.expectKeyword("port")
	conn := Connection{Label: labelTok.text, Properties: map[string]PropValue{}, Line: labelTok.line}
	conn.Src = p.parsePortRef()
	p.expect(tokArrow)
	conn.Dst = p.parsePortRef()
	if p.peek().kind == tokLBrace {
		p.next()
		for p.more() {
			key, val := p.parseProperty()
			conn.Properties[key] = val
		}
		p.expect(tokRBrace)
	}
	p.expect(tokSemi)
	return conn
}

// parsePortRef parses "component.port".
func (p *parser) parsePortRef() PortRef {
	comp := p.expect(tokIdent)
	p.expect(tokDot)
	return PortRef{Component: comp.text, Port: p.expect(tokIdent).text}
}

// parseEnd parses "end Name;" verifying the name matches.
func (p *parser) parseEnd(want string) {
	p.expectKeyword("end")
	if name := p.parseDottedName(); !strings.EqualFold(name, want) {
		p.fail(p.peek(), "end %q does not match %q", name, want)
	}
	p.expect(tokSemi)
}
