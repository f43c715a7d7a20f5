package qasm_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"qcec/internal/circuit"
	"qcec/internal/qasm"
)

// FuzzParseMatchesReference checks qasm.Parse against referenceParse, the
// tokenize-first parser it replaced (kept below as the oracle): on every
// input both accept or both reject, and accepted programs are equal gate
// for gate, register for register and measurement for measurement.  Run
// the seeds with `go test`, explore with
// `go test -fuzz=FuzzParseMatchesReference ./internal/qasm`.
func FuzzParseMatchesReference(f *testing.F) {
	seeds := []string{
		// register broadcast
		"qreg a[3]; qreg b[3]; creg c[3];\nh a; cx a, b; cx a[0], b; rz(pi/4) b; swap a, b;",
		"qreg a[2]; qreg b[3]; cx a, b;",
		"qreg a[1]; qreg b[2]; cx a, b;",
		// nested macros with parameter expressions
		"gate inner(t) x { rz(t/2) x; u3(t, -t, 2*t^2) x; }\n" +
			"gate outer(a, b) x, y { inner(a+b) x; barrier x, y; cx x, y; inner(-(a-b)*pi) y; }\n" +
			"qreg q[2]; outer(0.1, sin(0.3)) q[0], q[1]; outer(1, 2) q[1], q[0]; outer(1e-3, .5) q;",
		"gate g(p, p) a, a { rz(p) a; } qreg q[2]; g(1, 2) q[0], q[1];",
		"gate g(t) a { rz(s) a; } qreg q[1]; g(1) q[0];",
		"gate g a { h b; } qreg q[1]; g q[0];",
		// both measure forms
		"qreg q[2]; creg c[2]; measure q -> c; measure q[1] -> c[0];",
		"qreg q[2]; creg c[1]; measure q -> c;",
		// comments and CRLF line endings
		"OPENQASM 2.0;\r\n// header\r\nqreg q[2];\r\n/* block\r\ncomment */ h q[0];\r\ncx q[0],q[1]; // tail\r\n",
		"/* unterminated\r\nqreg q[1];",
		// bytes >= 0x80: a Latin-1 letter continues an identifier, others
		// are lexing errors
		"qreg q\xe9[2]; x q\xe9[0]; cx q\xe9[1], q\xe9[0];",
		"qreg q[1]; x q[0]; \xd7",
		"qreg \xc3\xa9[1]; x \xc3\xa9[0];",
		// a lexing error placed after a semantic error
		"qreg q[1]; frobnicate q[0];\nx q[0]; $",
		"qreg q[2]; cx q[0], q[0];\nh q[1]; \"unterminated",
		// the client benchmark's cosmetic variants: renamed register, CX and
		// cnot for cx, u1 for p, spaced commas
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg r417[3]; // rerun 12345\n" +
			"u3(0.5,0.25,-0.125) r417[0];\nCX r417[0] , r417[1];\ncnot r417[1] , r417[2];\n" +
			"u1(0.78539816339744828) r417[2];\np(-1.5707963267948966) r417[0];\n",
		// numbers must parse in full; a macro must not expand into itself
		"qreg q[1]; rz(1.2.3) q[0];",
		"gate g(t) a { rz(t*1..2) a; } qreg q[1]; g(1) q[0];",
		"qreg q[1]; rz(1e5.5) q[0]; rx(1e400) q[0]; ry(2E-3) q[0];",
		"gate g a { g a; } qreg q[1]; g q[0];",
		"qreg q[2]; x q[99999999999999999999]; h q[5000];",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	files, _ := filepath.Glob(filepath.Join("..", "..", "circuits", "*.qasm"))
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if declaresHugeRegister(src) {
			return
		}
		want, wantErr := referenceParse(src)
		got, gotErr := qasm.Parse(src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Parse error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if diff := diffPrograms(got, want); diff != "" {
			t.Fatal(diff)
		}
	})
}

// declaresHugeRegister reports whether src declares a register of more
// than 1024 wires before its first lexing error.  Both parsers expand a
// register-wide statement into one gate or measurement per wire, so such
// inputs only measure how much memory the fuzzer may use.
func declaresHugeRegister(src string) bool {
	l := newLexer(src)
	decl, afterBracket := false, false
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			return false
		}
		if decl && afterBracket && t.kind == tokNumber {
			if n, err := strconv.Atoi(t.text); err == nil && n > 1024 {
				return true
			}
		}
		switch {
		case t.kind == tokIdent && (t.text == "qreg" || t.text == "creg"):
			decl = true
		case t.kind == tokSymbol && t.text == ";":
			decl = false
		}
		afterBracket = t.kind == tokSymbol && t.text == "["
	}
}

// diffPrograms describes the first difference between two parsed programs,
// or returns "".  Params compare by bit pattern, so equal NaNs match, and
// Custom by value.
func diffPrograms(got, want *qasm.Program) string {
	g, w := got.Circuit, want.Circuit
	if g.N != w.N || g.Name != w.Name || len(g.Gates) != len(w.Gates) {
		return fmt.Sprintf("circuit %q on %d qubits with %d gates, reference %q on %d with %d",
			g.Name, g.N, len(g.Gates), w.Name, w.N, len(w.Gates))
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, a := range g.Gates {
		b := w.Gates[i]
		if a.Kind != b.Kind || a.Target != b.Target || a.Target2 != b.Target2 ||
			!slices.Equal(a.Controls, b.Controls) || !slices.EqualFunc(a.Params, b.Params, sameBits) ||
			(a.Custom == nil) != (b.Custom == nil) || a.Custom != nil && *a.Custom != *b.Custom {
			return fmt.Sprintf("gate %d: %v, reference %v", i, a, b)
		}
	}
	if !slices.Equal(got.QRegs, want.QRegs) || !slices.Equal(got.CRegs, want.CRegs) {
		return fmt.Sprintf("registers %v %v, reference %v %v", got.QRegs, got.CRegs, want.QRegs, want.CRegs)
	}
	if !slices.Equal(got.Measurements, want.Measurements) {
		return fmt.Sprintf("measurements %v, reference %v", got.Measurements, want.Measurements)
	}
	return ""
}

// The reference parser: the tokenize-first lexer and AST-building parser
// that qasm.Parse replaced, with four fixes applied to both:
//   - numbers must parse in full (strconv.ParseFloat, not fmt.Sscanf's
//     longest prefix);
//   - a macro that expands into itself is rejected instead of recursing
//     until the stack overflows;
//   - a register that overflows the wire space is rejected instead of
//     panicking;
//   - a broadcast over a one-wire register and a wider one is a width
//     mismatch instead of an index-out-of-range panic.

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // single punctuation: ( ) [ ] { } , ; + - * / ^ ->
	tokArrow
)

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
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
				return token{}, l.errf("unterminated block comment")
			}
			l.pos += 2
		default:
			return l.scanToken()
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
}

func (l *lexer) scanToken() (token, error) {
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) {
			r := l.src[l.pos]
			if !unicode.IsLetter(rune(r)) && !unicode.IsDigit(rune(r)) && r != '_' {
				break
			}
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
	case unicode.IsDigit(rune(c)) || c == '.':
		seenE := false
		for l.pos < len(l.src) {
			r := l.src[l.pos]
			if unicode.IsDigit(rune(r)) || r == '.' {
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
		return token{kind: tokNumber, text: l.src[start:l.pos], line: l.line}, nil
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return token{}, l.errf("newline in string literal")
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string literal")
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return token{kind: tokString, text: text, line: l.line}, nil
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{kind: tokArrow, text: "->", line: l.line}, nil
	case strings.ContainsRune("()[]{},;+-*/^==", rune(c)):
		l.pos++
		return token{kind: tokSymbol, text: string(c), line: l.line}, nil
	default:
		return token{}, l.errf("unexpected character %q", c)
	}
}

// tokenize scans the whole source up front; QASM files are small enough that
// a token slice is simpler than streaming.
func tokenize(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// expr is a parameter-expression AST node; it is evaluated against the
// formal-parameter environment of the enclosing gate macro (nil at top
// level).
type expr interface {
	eval(env map[string]float64) (float64, error)
}

type numExpr float64

func (n numExpr) eval(map[string]float64) (float64, error) { return float64(n), nil }

type varExpr string

func (v varExpr) eval(env map[string]float64) (float64, error) {
	if v == "pi" {
		return math.Pi, nil
	}
	if env != nil {
		if val, ok := env[string(v)]; ok {
			return val, nil
		}
	}
	return 0, fmt.Errorf("unknown identifier %q in expression", string(v))
}

type unaryExpr struct{ x expr }

func (u unaryExpr) eval(env map[string]float64) (float64, error) {
	v, err := u.x.eval(env)
	return -v, err
}

type binExpr struct {
	op   byte
	a, b expr
}

func (b binExpr) eval(env map[string]float64) (float64, error) {
	x, err := b.a.eval(env)
	if err != nil {
		return 0, err
	}
	y, err := b.b.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return x + y, nil
	case '-':
		return x - y, nil
	case '*':
		return x * y, nil
	case '/':
		if y == 0 {
			return 0, fmt.Errorf("division by zero in parameter expression")
		}
		return x / y, nil
	case '^':
		return math.Pow(x, y), nil
	default:
		return 0, fmt.Errorf("unknown operator %q", b.op)
	}
}

type callExpr struct {
	fn string
	x  expr
}

func (c callExpr) eval(env map[string]float64) (float64, error) {
	v, err := c.x.eval(env)
	if err != nil {
		return 0, err
	}
	switch c.fn {
	case "sin":
		return math.Sin(v), nil
	case "cos":
		return math.Cos(v), nil
	case "tan":
		return math.Tan(v), nil
	case "exp":
		return math.Exp(v), nil
	case "ln":
		return math.Log(v), nil
	case "sqrt":
		return math.Sqrt(v), nil
	default:
		return 0, fmt.Errorf("unknown function %q", c.fn)
	}
}

// macroGate is one statement inside a user gate definition.
type macroGate struct {
	name   string
	params []expr
	args   []string // formal qubit argument names
	line   int
}

type macroDef struct {
	params []string
	args   []string
	body   []macroGate
}

type parser struct {
	toks []token
	pos  int

	qregs     []qasm.Register
	cregs     []qasm.Register
	macros    map[string]macroDef
	expanding map[string]bool // macros being expanded

	circ     *circuit.Circuit
	pending  []pendingGate
	measures []qasm.Measurement
}

// pendingGate buffers gate applications until the register sizes are known
// (declarations may in principle interleave, and we need the total width to
// build the circuit).
type pendingGate struct {
	gate circuit.Gate
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) advance()    { p.pos++ }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectSymbol(s string) error {
	t := p.cur()
	if (t.kind != tokSymbol && t.kind != tokArrow) || t.text != s {
		return p.errf("expected %q, got %q", s, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	t := p.cur()
	if (t.kind == tokSymbol || t.kind == tokArrow) && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errf("expected integer, got %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("invalid integer %q", t.text)
	}
	p.advance()
	return n, nil
}

// referenceParse parses OpenQASM 2.0 source text.
func referenceParse(src string) (*qasm.Program, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, macros: make(map[string]macroDef), expanding: make(map[string]bool)}
	if err := p.parseHeader(); err != nil {
		return nil, err
	}
	for !p.atEOF() {
		if err := p.parseStatement(); err != nil {
			return nil, err
		}
	}
	return p.finish()
}

func (p *parser) parseHeader() error {
	if p.cur().kind == tokIdent && p.cur().text == "OPENQASM" {
		p.advance()
		if p.cur().kind != tokNumber {
			return p.errf("expected version number")
		}
		if v := p.cur().text; v != "2.0" && v != "2" {
			return p.errf("unsupported OPENQASM version %s", v)
		}
		p.advance()
		return p.expectSymbol(";")
	}
	return nil // header is optional in practice
}

func (p *parser) parseStatement() error {
	t := p.cur()
	if t.kind != tokIdent {
		return p.errf("expected statement, got %q", t.text)
	}
	switch t.text {
	case "include":
		p.advance()
		if p.cur().kind != tokString {
			return p.errf("expected file name after include")
		}
		p.advance()
		return p.expectSymbol(";")
	case "qreg":
		return p.parseReg(&p.qregs)
	case "creg":
		return p.parseReg(&p.cregs)
	case "gate":
		return p.parseGateDef()
	case "opaque":
		return p.skipToSemicolon()
	case "barrier":
		return p.skipToSemicolon()
	case "measure":
		return p.parseMeasure()
	case "reset", "if":
		return p.errf("unsupported statement %q", t.text)
	default:
		return p.parseGateCall()
	}
}

func (p *parser) skipToSemicolon() error {
	for !p.atEOF() && !(p.cur().kind == tokSymbol && p.cur().text == ";") {
		p.advance()
	}
	return p.expectSymbol(";")
}

func (p *parser) parseReg(regs *[]qasm.Register) error {
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("["); err != nil {
		return err
	}
	size, err := p.expectInt()
	if err != nil {
		return err
	}
	if size <= 0 {
		return p.errf("register %q has invalid size %d", name, size)
	}
	if err := p.expectSymbol("]"); err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	offset := 0
	for _, r := range *regs {
		if r.Name == name {
			return p.errf("register %q redeclared", name)
		}
		offset += r.Size
	}
	if size > math.MaxInt-offset {
		return p.errf("register %q overflows the wire space", name)
	}
	*regs = append(*regs, qasm.Register{Name: name, Size: size, Offset: offset})
	return nil
}

func (p *parser) findQubit(name string, idx int) (int, error) {
	for _, r := range p.qregs {
		if r.Name == name {
			if idx < 0 || idx >= r.Size {
				return 0, p.errf("index %d out of range for register %q[%d]", idx, name, r.Size)
			}
			return r.Offset + idx, nil
		}
	}
	return 0, p.errf("unknown quantum register %q", name)
}

func (p *parser) findCBit(name string, idx int) (int, error) {
	for _, r := range p.cregs {
		if r.Name == name {
			if idx < 0 || idx >= r.Size {
				return 0, p.errf("index %d out of range for register %q[%d]", idx, name, r.Size)
			}
			return r.Offset + idx, nil
		}
	}
	return 0, p.errf("unknown classical register %q", name)
}

// qubitArg is either a single wire or a whole register (broadcast).
type qubitArg struct {
	wires []int
	whole bool
}

func (p *parser) parseQubitArg() (qubitArg, error) {
	name, err := p.expectIdent()
	if err != nil {
		return qubitArg{}, err
	}
	if p.acceptSymbol("[") {
		idx, err := p.expectInt()
		if err != nil {
			return qubitArg{}, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return qubitArg{}, err
		}
		w, err := p.findQubit(name, idx)
		if err != nil {
			return qubitArg{}, err
		}
		return qubitArg{wires: []int{w}}, nil
	}
	for _, r := range p.qregs {
		if r.Name == name {
			ws := make([]int, r.Size)
			for i := range ws {
				ws[i] = r.Offset + i
			}
			return qubitArg{wires: ws, whole: true}, nil
		}
	}
	return qubitArg{}, p.errf("unknown quantum register %q", name)
}

func (p *parser) parseMeasure() error {
	p.advance()
	q, err := p.parseQubitArg()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	var bits []int
	if p.acceptSymbol("[") {
		idx, err := p.expectInt()
		if err != nil {
			return err
		}
		if err := p.expectSymbol("]"); err != nil {
			return err
		}
		b, err := p.findCBit(name, idx)
		if err != nil {
			return err
		}
		bits = []int{b}
	} else {
		found := false
		for _, r := range p.cregs {
			if r.Name == name {
				for i := 0; i < r.Size; i++ {
					bits = append(bits, r.Offset+i)
				}
				found = true
			}
		}
		if !found {
			return p.errf("unknown classical register %q", name)
		}
	}
	if len(q.wires) != len(bits) {
		return p.errf("measure width mismatch (%d qubits, %d bits)", len(q.wires), len(bits))
	}
	for i := range q.wires {
		p.measures = append(p.measures, qasm.Measurement{Qubit: q.wires[i], Bit: bits[i]})
	}
	return p.expectSymbol(";")
}

// parseExpr parses a parameter expression with the usual precedence:
// ^ binds tightest, then * /, then + -.
func (p *parser) parseExpr() (expr, error) { return p.parseAddSub() }

func (p *parser) parseAddSub() (expr, error) {
	left, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			right, err := p.parseMulDiv()
			if err != nil {
				return nil, err
			}
			left = binExpr{op: '+', a: left, b: right}
		case p.acceptSymbol("-"):
			right, err := p.parseMulDiv()
			if err != nil {
				return nil, err
			}
			left = binExpr{op: '-', a: left, b: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMulDiv() (expr, error) {
	left, err := p.parsePow()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			right, err := p.parsePow()
			if err != nil {
				return nil, err
			}
			left = binExpr{op: '*', a: left, b: right}
		case p.acceptSymbol("/"):
			right, err := p.parsePow()
			if err != nil {
				return nil, err
			}
			left = binExpr{op: '/', a: left, b: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parsePow() (expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.acceptSymbol("^") {
		right, err := p.parsePow() // right-associative
		if err != nil {
			return nil, err
		}
		return binExpr{op: '^', a: left, b: right}, nil
	}
	return left, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{x: x}, nil
	}
	if p.acceptSymbol("+") {
		return p.parseUnary()
	}
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.text)
		}
		return numExpr(f), nil
	case tokIdent:
		p.advance()
		if p.acceptSymbol("(") {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return callExpr{fn: t.text, x: arg}, nil
		}
		return varExpr(t.text), nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

// parseGateDef parses `gate name(params) args { body }`.
func (p *parser) parseGateDef() error {
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	var def macroDef
	if p.acceptSymbol("(") {
		for !p.acceptSymbol(")") {
			pn, err := p.expectIdent()
			if err != nil {
				return err
			}
			def.params = append(def.params, pn)
			if !p.acceptSymbol(",") && !(p.cur().kind == tokSymbol && p.cur().text == ")") {
				return p.errf("expected ',' or ')' in gate parameter list")
			}
		}
	}
	for {
		an, err := p.expectIdent()
		if err != nil {
			return err
		}
		def.args = append(def.args, an)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	for !p.acceptSymbol("}") {
		if p.atEOF() {
			return p.errf("unterminated gate body for %q", name)
		}
		if p.cur().kind == tokIdent && p.cur().text == "barrier" {
			if err := p.skipToSemicolon(); err != nil {
				return err
			}
			continue
		}
		mg, err := p.parseMacroGate()
		if err != nil {
			return err
		}
		def.body = append(def.body, mg)
	}
	p.macros[name] = def
	return nil
}

func (p *parser) parseMacroGate() (macroGate, error) {
	line := p.cur().line
	name, err := p.expectIdent()
	if err != nil {
		return macroGate{}, err
	}
	mg := macroGate{name: name, line: line}
	if p.acceptSymbol("(") {
		for !p.acceptSymbol(")") {
			e, err := p.parseExpr()
			if err != nil {
				return macroGate{}, err
			}
			mg.params = append(mg.params, e)
			if !p.acceptSymbol(",") && !(p.cur().kind == tokSymbol && p.cur().text == ")") {
				return macroGate{}, p.errf("expected ',' or ')' in parameter list")
			}
		}
	}
	for {
		an, err := p.expectIdent()
		if err != nil {
			return macroGate{}, err
		}
		mg.args = append(mg.args, an)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(";"); err != nil {
		return macroGate{}, err
	}
	return mg, nil
}

// parseGateCall parses a top-level gate application and emits circuit gates.
func (p *parser) parseGateCall() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	var params []float64
	if p.acceptSymbol("(") {
		for !p.acceptSymbol(")") {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			v, err := e.eval(nil)
			if err != nil {
				return p.errf("%v", err)
			}
			params = append(params, v)
			if !p.acceptSymbol(",") && !(p.cur().kind == tokSymbol && p.cur().text == ")") {
				return p.errf("expected ',' or ')' in parameter list")
			}
		}
	}
	var args []qubitArg
	for {
		a, err := p.parseQubitArg()
		if err != nil {
			return err
		}
		args = append(args, a)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}

	// Broadcast: if any argument is a whole register, all whole-register
	// arguments must have equal size and the call repeats element-wise.
	width := 0
	for _, a := range args {
		if a.whole {
			if width != 0 && width != len(a.wires) {
				return p.errf("broadcast width mismatch in %q", name)
			}
			width = len(a.wires)
		}
	}
	for i := 0; i < max(width, 1); i++ {
		wires := make([]int, len(args))
		for j, a := range args {
			if a.whole {
				wires[j] = a.wires[i]
			} else {
				wires[j] = a.wires[0]
			}
		}
		if err := p.emit(name, params, wires); err != nil {
			return err
		}
	}
	return nil
}

// emit resolves a gate name (builtin or macro) to circuit gates.
func (p *parser) emit(name string, params []float64, wires []int) error {
	if g, ok, err := builtinGate(name, params, wires); err != nil {
		return p.errf("%v", err)
	} else if ok {
		p.pending = append(p.pending, pendingGate{gate: g})
		return nil
	}
	def, ok := p.macros[name]
	if !ok {
		return p.errf("unknown gate %q", name)
	}
	if len(params) != len(def.params) || len(wires) != len(def.args) {
		return p.errf("gate %q expects %d params and %d qubits, got %d and %d",
			name, len(def.params), len(def.args), len(params), len(wires))
	}
	if p.expanding[name] {
		return p.errf("gate %q expands into itself", name)
	}
	p.expanding[name] = true
	defer delete(p.expanding, name)
	env := make(map[string]float64, len(def.params))
	for i, pn := range def.params {
		env[pn] = params[i]
	}
	argMap := make(map[string]int, len(def.args))
	for i, an := range def.args {
		argMap[an] = wires[i]
	}
	for _, mg := range def.body {
		subParams := make([]float64, len(mg.params))
		for i, e := range mg.params {
			v, err := e.eval(env)
			if err != nil {
				return p.errf("in gate %q: %v", name, err)
			}
			subParams[i] = v
		}
		subWires := make([]int, len(mg.args))
		for i, an := range mg.args {
			w, ok := argMap[an]
			if !ok {
				return p.errf("in gate %q: unknown qubit argument %q", name, an)
			}
			subWires[i] = w
		}
		if err := p.emit(mg.name, subParams, subWires); err != nil {
			return err
		}
	}
	return nil
}

// builtinGate maps a qelib1-style gate name to a circuit gate.  It reports
// ok=false for names that are not builtin (candidate macros).
func builtinGate(name string, params []float64, wires []int) (circuit.Gate, bool, error) {
	mk := func(kind circuit.Kind, nParams, nCtl int) (circuit.Gate, bool, error) {
		if len(params) != nParams {
			return circuit.Gate{}, true, fmt.Errorf("gate %q expects %d parameters, got %d", name, nParams, len(params))
		}
		if len(wires) != nCtl+1 {
			return circuit.Gate{}, true, fmt.Errorf("gate %q expects %d qubits, got %d", name, nCtl+1, len(wires))
		}
		g := circuit.Gate{Kind: kind, Target: wires[nCtl], Target2: -1, Params: params}
		for i := 0; i < nCtl; i++ {
			g.Controls = append(g.Controls, circuit.Control{Qubit: wires[i]})
		}
		return g, true, nil
	}
	mkSwap := func(nCtl int) (circuit.Gate, bool, error) {
		if len(wires) != nCtl+2 {
			return circuit.Gate{}, true, fmt.Errorf("gate %q expects %d qubits, got %d", name, nCtl+2, len(wires))
		}
		g := circuit.Gate{Kind: circuit.SWAP, Target: wires[nCtl], Target2: wires[nCtl+1]}
		for i := 0; i < nCtl; i++ {
			g.Controls = append(g.Controls, circuit.Control{Qubit: wires[i]})
		}
		return g, true, nil
	}
	switch name {
	case "id":
		return mk(circuit.I, 0, 0)
	case "x", "X":
		return mk(circuit.X, 0, 0)
	case "y":
		return mk(circuit.Y, 0, 0)
	case "z":
		return mk(circuit.Z, 0, 0)
	case "h":
		return mk(circuit.H, 0, 0)
	case "s":
		return mk(circuit.S, 0, 0)
	case "sdg":
		return mk(circuit.Sdg, 0, 0)
	case "t":
		return mk(circuit.T, 0, 0)
	case "tdg":
		return mk(circuit.Tdg, 0, 0)
	case "sx":
		return mk(circuit.SX, 0, 0)
	case "sxdg":
		return mk(circuit.SXdg, 0, 0)
	case "rx":
		return mk(circuit.RX, 1, 0)
	case "ry":
		return mk(circuit.RY, 1, 0)
	case "rz":
		return mk(circuit.RZ, 1, 0)
	case "p", "u1":
		return mk(circuit.P, 1, 0)
	case "u2":
		return mk(circuit.U2, 2, 0)
	case "u3", "u", "U":
		return mk(circuit.U3, 3, 0)
	case "cx", "CX", "cnot":
		return mk(circuit.X, 0, 1)
	case "cy":
		return mk(circuit.Y, 0, 1)
	case "cz":
		return mk(circuit.Z, 0, 1)
	case "ch":
		return mk(circuit.H, 0, 1)
	case "csx":
		return mk(circuit.SX, 0, 1)
	case "crx":
		return mk(circuit.RX, 1, 1)
	case "cry":
		return mk(circuit.RY, 1, 1)
	case "crz":
		return mk(circuit.RZ, 1, 1)
	case "cp", "cu1":
		return mk(circuit.P, 1, 1)
	case "cu3":
		return mk(circuit.U3, 3, 1)
	case "ccx", "toffoli":
		return mk(circuit.X, 0, 2)
	case "ccz":
		return mk(circuit.Z, 0, 2)
	case "swap":
		return mkSwap(0)
	case "cswap", "fredkin":
		return mkSwap(1)
	default:
		return circuit.Gate{}, false, nil
	}
}

// finish assembles the parsed program once all declarations are known.
func (p *parser) finish() (*qasm.Program, error) {
	width := 0
	for _, r := range p.qregs {
		width += r.Size
	}
	if width == 0 {
		return nil, fmt.Errorf("qasm: no quantum registers declared")
	}
	name := "qasm"
	if len(p.qregs) == 1 {
		name = p.qregs[0].Name
	}
	c := circuit.New(width, name)
	for _, pg := range p.pending {
		if err := c.TryAdd(pg.gate); err != nil {
			return nil, fmt.Errorf("qasm: invalid gate %s: %w", pg.gate, err)
		}
	}
	return &qasm.Program{
		Circuit:      c,
		QRegs:        p.qregs,
		CRegs:        p.cregs,
		Measurements: p.measures,
	}, nil
}
