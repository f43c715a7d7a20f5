// Package qasm reads and writes a practical subset of OpenQASM 2.0 — the
// interchange format the paper's benchmark circuits ship in.
//
// Supported: version header, include statements (ignored), qreg/creg
// declarations (multiple registers are flattened into one contiguous wire
// space), the full qelib1 standard-gate vocabulary, user-defined gate macros
// (expanded at parse time), parameter expressions over pi with + - * / and
// unary minus, barrier (ignored) and measure (recorded but not simulated).
// A number token must parse in full as a float: 1.2.3 or 1..2 is an
// invalid number, not 1.2 or 1.
//
// Parsing streams: the lexer hands the parser one token at a time, and gates
// are validated as they are appended to the circuit, so a parse allocates a
// few objects per thousand gates.
package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // single punctuation: ( ) [ ] { } , ; + - * / ^ =
	tokArrow
)

type token struct {
	kind tokenKind
	text string // a substring of the source
	line int
}

// Byte classes of the lexer.  A byte is classified as the rune of the same
// value, so bytes >= 0x80 that are Latin-1 letters (such as 0xE9) continue
// identifiers, exactly as unicode.IsLetter decides.
const (
	classIdentStart = 1 << iota // letter or '_'
	classIdent                  // letter, digit or '_'
	classNumber                 // digit or '.'
	classSymbol                 // a one-byte punctuation token
)

var byteClass = func() (t [256]uint8) {
	for i := range t {
		r := rune(i)
		letter, digit := unicode.IsLetter(r) || r == '_', unicode.IsDigit(r)
		if letter {
			t[i] |= classIdentStart
		}
		if letter || digit {
			t[i] |= classIdent
		}
		if digit || r == '.' {
			t[i] |= classNumber
		}
		if strings.ContainsRune("()[]{},;+-*/^=", r) {
			t[i] |= classSymbol
		}
	}
	return t
}()

// lexer scans one token per next call.  On a lexing error it records the
// error and reports EOF from then on; the parser returns that error in
// preference to whatever it made of the early EOF.
type lexer struct {
	src  string
	pos  int
	line int
	err  error
}

func (l *lexer) fail(format string, args ...any) token {
	l.err = fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
	l.pos = len(l.src)
	return token{kind: tokEOF, line: l.line}
}

func (l *lexer) next() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			if l.pos+1 >= len(l.src) {
				return l.fail("unterminated block comment")
			}
			l.pos += 2
		default:
			return l.scanToken()
		}
	}
	return token{kind: tokEOF, line: l.line}
}

func (l *lexer) scanToken() token {
	c := l.src[l.pos]
	start := l.pos
	kind := tokSymbol
	switch {
	case byteClass[c]&classIdentStart != 0:
		for l.pos < len(l.src) && byteClass[l.src[l.pos]]&classIdent != 0 {
			l.pos++
		}
		kind = tokIdent
	case byteClass[c]&classNumber != 0:
		seenE := false
		for l.pos < len(l.src) {
			r := l.src[l.pos]
			if byteClass[r]&classNumber != 0 {
				l.pos++
				continue
			}
			if (r == 'e' || r == 'E') && !seenE {
				seenE = true
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			break
		}
		kind = tokNumber
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return l.fail("newline in string literal")
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return l.fail("unterminated string literal")
		}
		l.pos++
		return token{kind: tokString, text: l.src[start+1 : l.pos-1], line: l.line}
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		kind = tokArrow
	case byteClass[c]&classSymbol != 0:
		l.pos++
	default:
		return l.fail("unexpected character %q", c)
	}
	return token{kind: kind, text: l.src[start:l.pos], line: l.line}
}
