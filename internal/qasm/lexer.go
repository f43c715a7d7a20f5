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
// Parsing streams at close to the cost of reading the source: the lexer
// hands the parser one token at a time as a pair of byte offsets, and the
// shapes nearly every compiler-written statement has — qubit arguments
// `r[i], r[j];` and plain-number parameters — are read straight from the
// bytes, falling back to tokens on anything else.  Gates are built and
// validated where they land in the circuit, so a parse copies no gate and
// allocates a few objects per thousand gates.  Line numbers are counted
// only when an error is reported: an error about a statement names the
// line of the statement's first token (a macro's expansion errors name the
// call's), a lexing error the line where the lexer stopped.  The tests keep
// the tokenize-first parser this one replaced as an oracle
// (FuzzParseMatchesReference).
package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // single punctuation: ( ) [ ] { } , ; + - * / ^ =
	tokArrow
)

// A token is a span of the source: src[start:end] is its text (a string
// token's without the quotes).
type token struct {
	kind       tokenKind
	start, end int
}

// Byte classes of the lexer.  A byte is classified as the rune of the same
// value, so bytes >= 0x80 that are Latin-1 letters (such as 0xE9) continue
// identifiers, exactly as unicode.IsLetter decides.
const (
	classIdentStart = 1 << iota // letter or '_'
	classIdent                  // letter, digit or '_'
	classNumber                 // digit or '.'
	classSymbol                 // a one-byte punctuation token
	classSpace                  // blank or line break
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
		if strings.ContainsRune(" \t\r\n", r) {
			t[i] |= classSpace
		}
	}
	return t
}()

// lineAt returns the 1-based line of byte offset pos of src.
func lineAt(src string, pos int) int { return 1 + strings.Count(src[:pos], "\n") }

// lexer scans one token per next call.  On a lexing error it records the
// error and reports EOF from then on; the parser returns that error in
// preference to whatever it made of the early EOF.
type lexer struct {
	src string
	pos int
	err error
}

// fail records a lexing error at the current position.
func (l *lexer) fail(format string, args ...any) token {
	l.err = fmt.Errorf("qasm: line %d: %s", lineAt(l.src, l.pos), fmt.Sprintf(format, args...))
	l.pos = len(l.src)
	return token{kind: tokEOF, start: l.pos, end: l.pos}
}

func (l *lexer) next() token {
	src := l.src
	for l.pos < len(src) {
		c := src[l.pos]
		switch {
		case byteClass[c]&classSpace != 0:
			l.pos++
		case c == '/' && l.pos+1 < len(src) && src[l.pos+1] == '/':
			for l.pos < len(src) && src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(src) && src[l.pos+1] == '*':
			end := strings.Index(src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = max(l.pos+2, len(src)-1)
				return l.fail("unterminated block comment")
			}
			l.pos += 2 + end + 2
		default:
			return l.scanToken()
		}
	}
	return token{kind: tokEOF, start: l.pos, end: l.pos}
}

func (l *lexer) scanToken() token {
	src := l.src
	start := l.pos
	c := src[start]
	kind := tokSymbol
	switch {
	case byteClass[c]&classIdentStart != 0:
		l.pos = scanIdent(src, start)
		kind = tokIdent
	case byteClass[c]&classNumber != 0:
		l.pos = scanNumber(src, start)
		kind = tokNumber
	case c == '"':
		l.pos++
		for l.pos < len(src) && src[l.pos] != '"' {
			if src[l.pos] == '\n' {
				return l.fail("newline in string literal")
			}
			l.pos++
		}
		if l.pos >= len(src) {
			return l.fail("unterminated string literal")
		}
		l.pos++
		return token{kind: tokString, start: start + 1, end: l.pos - 1}
	case c == '-' && l.pos+1 < len(src) && src[l.pos+1] == '>':
		l.pos += 2
		kind = tokArrow
	case byteClass[c]&classSymbol != 0:
		l.pos++
	default:
		return l.fail("unexpected character %q", c)
	}
	return token{kind: kind, start: start, end: l.pos}
}

// scanIdent returns the end of the identifier that starts at src[pos].
func scanIdent(src string, pos int) int {
	for pos < len(src) && byteClass[src[pos]]&classIdent != 0 {
		pos++
	}
	return pos
}

// scanNumber returns the end of the number token that starts at src[pos]:
// digits and dots with at most one exponent mark, which may carry a sign.
// Whether the token is a well-formed number is for strconv to decide.
func scanNumber(src string, pos int) int {
	seenE := false
	for pos < len(src) {
		r := src[pos]
		if byteClass[r]&classNumber != 0 {
			pos++
			continue
		}
		if (r == 'e' || r == 'E') && !seenE {
			seenE = true
			pos++
			if pos < len(src) && (src[pos] == '+' || src[pos] == '-') {
				pos++
			}
			continue
		}
		break
	}
	return pos
}
