// Package aadl implements the modeling front end of the paper's workflow
// (Section IV): a parser for the AADL subset the scenario uses — processes
// with event data ports, system implementations with subcomponents and port
// connections, and property associations carrying each process's ac_id,
// its MINIX syscall grants and the kernels it runs on, and each
// connection's permitted message types — plus the two source-to-source
// compilers the authors describe:
//
//   - AADL → ACM ("this source-to-source compiler can automatically
//     generate the ACM for the AADL specification"), emitting a
//     core.Matrix and the PM server's syscall grants for the simulated
//     kernel, and a C rendering equivalent to what the authors compiled
//     into their MINIX kernel;
//   - AADL → CAmkES ("we have begun development of an AADL to CAmkES
//     source-to-source compiler"), emitting the assembly topology for
//     internal/camkes and a CAmkES ADL text rendering.
//
// TempControl embeds the scenario's own model; every MINIX and seL4
// scenario board boots what these compilers make of it.
//
// The grammar is a pragmatic subset of SAE AS5506 sufficient for the paper's
// models; it is not a general AADL front end.
package aadl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokIdent tokenKind = iota + 1
	tokNumber
	tokArrow    // ->
	tokAssoc    // =>
	tokColon    // :
	tokSemi     // ;
	tokDot      // .
	tokComma    // ,
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokDblColon // ::
	tokEOF
)

func (k tokenKind) String() string {
	switch k {
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokArrow:
		return "'->'"
	case tokAssoc:
		return "'=>'"
	case tokColon:
		return "':'"
	case tokSemi:
		return "';'"
	case tokDot:
		return "'.'"
	case tokComma:
		return "','"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokDblColon:
		return "'::'"
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// token is one lexeme with its source line.
type token struct {
	kind tokenKind
	text string
	line int
}

// SyntaxError reports a lexing or parsing failure with its line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("aadl: line %d: %s", e.Line, e.Msg)
}

// lex tokenises AADL source. AADL comments run from "--" to end of line.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '-' && i+1 < len(src) && src[i+1] == '>':
			toks = append(toks, token{kind: tokArrow, text: "->", line: line})
			i += 2
		case c == '=' && i+1 < len(src) && src[i+1] == '>':
			toks = append(toks, token{kind: tokAssoc, text: "=>", line: line})
			i += 2
		case c == ':' && i+1 < len(src) && src[i+1] == ':':
			toks = append(toks, token{kind: tokDblColon, text: "::", line: line})
			i += 2
		case c == ':':
			toks = append(toks, token{kind: tokColon, text: ":", line: line})
			i++
		case c == ';':
			toks = append(toks, token{kind: tokSemi, text: ";", line: line})
			i++
		case c == '.':
			toks = append(toks, token{kind: tokDot, text: ".", line: line})
			i++
		case c == ',':
			toks = append(toks, token{kind: tokComma, text: ",", line: line})
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, text: "(", line: line})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, text: ")", line: line})
			i++
		case c == '{':
			toks = append(toks, token{kind: tokLBrace, text: "{", line: line})
			i++
		case c == '}':
			toks = append(toks, token{kind: tokRBrace, text: "}", line: line})
			i++
		case unicode.IsDigit(rune(c)):
			start := i
			for i < len(src) && unicode.IsDigit(rune(src[i])) {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i], line: line})
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			toks = append(toks, token{kind: tokIdent, text: src[start:i], line: line})
		default:
			return nil, &SyntaxError{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line})
	return toks, nil
}

// keywordIs compares an identifier against an AADL keyword
// (case-insensitive, as AADL is).
func keywordIs(tok token, kw string) bool {
	return tok.kind == tokIdent && strings.EqualFold(tok.text, kw)
}
