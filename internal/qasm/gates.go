package qasm

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"qcec/internal/circuit"
)

// A parameter expression compiles to postfix code for a value stack: no
// tree to allocate per number, and a top-level expression is evaluated
// right after it is parsed.  Macro bodies keep their code and evaluate it
// per call against the actual parameters.
type exprOp struct {
	op   byte // opNum, opVar, opNeg, opCall, or the binary operator + - * / ^
	num  float64
	name string // variable or function name
}

const (
	opNum  = 'n'
	opVar  = 'v'
	opNeg  = '~'
	opCall = 'f'
)

// parseExpr compiles a parameter expression onto p.code with the usual
// precedence: ^ binds tightest, then * /, then + -.
func (p *parser) parseExpr() error { return p.parseBinary("+-", p.parseMulDiv) }

func (p *parser) parseMulDiv() error { return p.parseBinary("*/", p.parsePow) }

// parseBinary parses a left-associative chain of operand (op operand)*
// for the one-byte operators in ops.
func (p *parser) parseBinary(ops string, operand func() error) error {
	if err := operand(); err != nil {
		return err
	}
	for {
		var op byte
		switch {
		case p.acceptSymbol(ops[0]):
			op = ops[0]
		case p.acceptSymbol(ops[1]):
			op = ops[1]
		default:
			return nil
		}
		if err := operand(); err != nil {
			return err
		}
		p.code = append(p.code, exprOp{op: op})
	}
}

func (p *parser) parsePow() error {
	if err := p.parseUnary(); err != nil {
		return err
	}
	if p.acceptSymbol('^') {
		if err := p.parsePow(); err != nil { // right-associative
			return err
		}
		p.code = append(p.code, exprOp{op: '^'})
	}
	return nil
}

func (p *parser) parseUnary() error {
	if p.acceptSymbol('-') {
		if err := p.parseUnary(); err != nil {
			return err
		}
		p.code = append(p.code, exprOp{op: opNeg})
		return nil
	}
	if p.acceptSymbol('+') {
		return p.parseUnary()
	}
	t := p.tok
	text := p.text(t)
	switch t.kind {
	case tokNumber:
		p.advance()
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return p.errf("invalid number %q", text)
		}
		p.code = append(p.code, exprOp{op: opNum, num: f})
		return nil
	case tokIdent:
		p.advance()
		if p.acceptSymbol('(') {
			if err := p.parseExpr(); err != nil {
				return err
			}
			if err := p.expectSymbol(')'); err != nil {
				return err
			}
			p.code = append(p.code, exprOp{op: opCall, name: text})
			return nil
		}
		if text == "pi" {
			p.code = append(p.code, exprOp{op: opNum, num: math.Pi})
		} else {
			p.code = append(p.code, exprOp{op: opVar, name: text})
		}
		return nil
	case tokSymbol:
		if text == "(" {
			p.advance()
			if err := p.parseExpr(); err != nil {
				return err
			}
			return p.expectSymbol(')')
		}
	}
	return p.errf("unexpected token %q in expression", text)
}

// eval runs compiled expression code.  names binds the formal parameters of
// the enclosing macro to vals (a later name shadows an earlier one); both
// are nil at top level.  Operands are evaluated left to right and the first
// failure is reported, as a tree walk would.
func (p *parser) eval(code []exprOp, names []string, vals []float64) (float64, error) {
	st := p.stack[:0]
	for _, o := range code {
		top := len(st) - 1
		switch o.op {
		case opNum:
			st = append(st, o.num)
		case opVar:
			i := lastIndex(names, o.name)
			if i < 0 {
				return 0, fmt.Errorf("unknown identifier %q in expression", o.name)
			}
			st = append(st, vals[i])
		case opNeg:
			st[top] = -st[top]
		case opCall:
			v, err := call(o.name, st[top])
			if err != nil {
				return 0, err
			}
			st[top] = v
		default:
			x, y := st[top-1], st[top]
			switch o.op {
			case '+':
				x += y
			case '-':
				x -= y
			case '*':
				x *= y
			case '/':
				if y == 0 {
					return 0, fmt.Errorf("division by zero in parameter expression")
				}
				x /= y
			case '^':
				x = math.Pow(x, y)
			}
			st = st[:top]
			st[top-1] = x
		}
	}
	p.stack = st
	return st[0], nil
}

func call(fn string, v float64) (float64, error) {
	switch fn {
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
		return 0, fmt.Errorf("unknown function %q", fn)
	}
}

// lastIndex returns the index of the last occurrence of s in list, or -1.
func lastIndex(list []string, s string) int {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == s {
			return i
		}
	}
	return -1
}

// parseGateDef parses `gate name(params) args { body }`.  Each body
// statement is a statement of its own for error lines.
func (p *parser) parseGateDef() error {
	gate := p.stmt
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &macroDef{}
	if p.acceptSymbol('(') {
		for !p.acceptSymbol(')') {
			pn, err := p.expectIdent()
			if err != nil {
				return err
			}
			def.params = append(def.params, pn)
			if !p.acceptSymbol(',') && !p.atSymbol(')') {
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
		if !p.acceptSymbol(',') {
			break
		}
	}
	if err := p.expectSymbol('{'); err != nil {
		return err
	}
	for !p.acceptSymbol('}') {
		if p.atEOF() {
			p.stmt = gate
			return p.errf("unterminated gate body for %q", name)
		}
		p.begin()
		if p.tok.kind == tokIdent && p.text(p.tok) == "barrier" {
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
	name, err := p.expectIdent()
	if err != nil {
		return macroGate{}, err
	}
	mg := macroGate{name: name}
	if p.acceptSymbol('(') {
		for !p.acceptSymbol(')') {
			p.code = p.code[:0]
			if err := p.parseExpr(); err != nil {
				return macroGate{}, err
			}
			mg.params = append(mg.params, slices.Clone(p.code))
			if !p.acceptSymbol(',') && !p.atSymbol(')') {
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
		if !p.acceptSymbol(',') {
			break
		}
	}
	if err := p.expectSymbol(';'); err != nil {
		return macroGate{}, err
	}
	return mg, nil
}

// parseGateCall parses a top-level gate application and emits circuit gates.
// Its arguments are scanned from the source right after the gate name or
// the ')' closing its parameters (scanArgs), and parsed token by token
// where that fails.
func (p *parser) parseGateCall() error {
	name := p.text(p.tok)
	p.argF = p.argF[:0]
	scanned := p.scanArgs()
	if !scanned {
		p.advance()
		if p.atSymbol('(') {
			if err := p.parseParams(); err != nil {
				return err
			}
			if scanned = p.scanArgs(); !scanned {
				p.advance()
			}
		}
	}
	if !scanned {
		if err := p.parseArgs(); err != nil {
			return err
		}
	}
	args := p.args

	// Broadcast: if any argument is a whole register, all whole-register
	// arguments must have equal size and the call repeats element-wise.
	width := 0
	for _, a := range args {
		if a.whole {
			if width != 0 && width != a.size {
				return p.errf("broadcast width mismatch in %q", name)
			}
			width = a.size
		}
	}
	for i := 0; i < max(width, 1); i++ {
		p.argW = p.argW[:0]
		for _, a := range args {
			if a.whole {
				p.argW = append(p.argW, a.off+i)
			} else {
				p.argW = append(p.argW, a.off)
			}
		}
		if err := p.emit(name, p.argF, p.argW); err != nil {
			return err
		}
	}
	return nil
}

// parseParams parses the parameter list of a top-level gate call into
// p.argF, from its '(' to its ')', which stays the current token.
func (p *parser) parseParams() error {
	p.advance()
	for !p.atSymbol(')') {
		v, err := p.parseParam()
		if err != nil {
			return err
		}
		p.argF = append(p.argF, v)
		if !p.acceptSymbol(',') && !p.atSymbol(')') {
			return p.errf("expected ',' or ')' in parameter list")
		}
	}
	return nil
}

// parseParam parses and evaluates one parameter of a top-level gate call.
// A number, negated or not, that a ',' or the closing ')' follows on the
// same line is read straight from the source, as nearly every parameter a
// compiler writes is; anything else is compiled and evaluated.
func (p *parser) parseParam() (float64, error) {
	src := p.lex.src
	start, neg := p.tok.start, p.atSymbol('-')
	if neg {
		start = p.tok.end
	} else if p.tok.kind != tokNumber {
		start = -1
	}
	if start >= 0 && start < len(src) && byteClass[src[start]]&classNumber != 0 {
		end := scanNumber(src, start)
		next := skipBlanks(src, end)
		if next < len(src) && (src[next] == ',' || src[next] == ')') {
			if v, err := strconv.ParseFloat(src[start:end], 64); err == nil {
				p.lex.pos = next
				p.advance()
				if neg {
					v = -v
				}
				return v, nil
			}
		}
	}
	p.code = p.code[:0]
	if err := p.parseExpr(); err != nil {
		return 0, err
	}
	v, err := p.eval(p.code, nil, nil)
	if err != nil {
		return 0, p.errf("%v", err)
	}
	return v, nil
}

// parseArgs parses the qubit arguments of a gate call, from the current
// token on, and its closing ';' into p.args.
func (p *parser) parseArgs() error {
	args := p.args[:0]
	for {
		a, err := p.parseIndexedArg(p.qregs, "quantum")
		if err != nil {
			return err
		}
		args = append(args, a)
		if !p.acceptSymbol(',') {
			break
		}
	}
	p.args = args
	return p.expectSymbol(';')
}

// maxIndexDigits bounds the register indices scanArgs reads itself, far
// below the digits that could overflow an int.
const maxIndexDigits = 18

// scanArgs is parseArgs for the shape nearly every gate call has: indexed
// arguments `r[i]` of declared quantum registers, separated by commas and
// blanks and closed by ';' on the same line.  It reads them straight from
// the source after the current token (the gate name or the ')' closing
// its parameters), and reports false, having consumed nothing, at the
// first byte outside that shape (a '(', a line break, a comment, a
// whole-register argument, an unknown register or an index out of range),
// where the token path takes over from the current token.
func (p *parser) scanArgs() bool {
	src := p.lex.src
	args := p.args[:0]
	pos := skipBlanks(src, p.tok.end)
	for {
		if pos >= len(src) || byteClass[src[pos]]&classIdentStart == 0 {
			return false
		}
		start := pos
		pos = scanIdent(src, pos)
		if pos >= len(src) || src[pos] != '[' {
			return false
		}
		pos++
		idx, digits := 0, pos
		for pos < len(src) && pos-digits < maxIndexDigits && src[pos]-'0' < 10 {
			idx = idx*10 + int(src[pos]-'0')
			pos++
		}
		if pos == digits || pos >= len(src) || src[pos] != ']' {
			return false
		}
		r, ok := findReg(p.qregs, src[start:digits-1])
		if !ok || idx >= r.Size {
			return false
		}
		args = append(args, qubitArg{off: r.Offset + idx, size: 1})
		pos = skipBlanks(src, pos+1)
		if pos >= len(src) {
			return false
		}
		switch src[pos] {
		case ';':
			p.args = args
			p.lex.pos = pos + 1
			p.advance()
			return true
		case ',':
			pos = skipBlanks(src, pos+1)
		default:
			return false
		}
	}
}

// skipBlanks returns the offset of the first byte at or after pos that is
// not a space or a tab.
func skipBlanks(src string, pos int) int {
	for pos < len(src) && (src[pos] == ' ' || src[pos] == '\t') {
		pos++
	}
	return pos
}

// emit resolves a gate name (builtin or macro) to circuit gates.
func (p *parser) emit(name string, params []float64, wires []int) error {
	if b, ok := lookupBuiltin(name); ok {
		return p.emitBuiltin(name, b, params, wires)
	}
	def, ok := p.macros[name]
	if !ok {
		return p.errf("unknown gate %q", name)
	}
	if len(params) != len(def.params) || len(wires) != len(def.args) {
		return p.errf("gate %q expects %d params and %d qubits, got %d and %d",
			name, len(def.params), len(def.args), len(params), len(wires))
	}
	if def.expanding {
		return p.errf("gate %q expands into itself", name)
	}
	if p.maxMacroCalls > 0 {
		if p.macroCalls == p.maxMacroCalls {
			return &LimitError{What: "macro calls", Limit: p.maxMacroCalls}
		}
		p.macroCalls++
	}
	def.expanding = true
	err := p.expand(name, def, params, wires)
	def.expanding = false
	return err
}

// expand emits the body of macro def called with params on wires, which
// are the top frames of the argument stacks.  The arguments of each body
// gate are pushed above them, so nested calls need no allocation of their
// own.
func (p *parser) expand(name string, def *macroDef, params []float64, wires []int) error {
	for _, mg := range def.body {
		f0, w0 := len(p.argF), len(p.argW)
		for _, code := range mg.params {
			v, err := p.eval(code, def.params, params)
			if err != nil {
				return p.errf("in gate %q: %v", name, err)
			}
			p.argF = append(p.argF, v)
		}
		for _, an := range mg.args {
			i := lastIndex(def.args, an)
			if i < 0 {
				return p.errf("in gate %q: unknown qubit argument %q", name, an)
			}
			p.argW = append(p.argW, wires[i])
		}
		err := p.emit(mg.name, p.argF[f0:], p.argW[w0:])
		p.argF, p.argW = p.argF[:f0], p.argW[:w0]
		if err != nil {
			return err
		}
	}
	return nil
}

// builtin describes a qelib1-style gate: its kind, its parameter count and
// how many leading wires are controls.  SWAP kinds take two targets.
type builtin struct {
	kind   circuit.Kind
	params int
	ctls   int
}

// lookupBuiltin returns the builtin gate named name.
func lookupBuiltin(name string) (builtin, bool) {
	switch name {
	case "id":
		return builtin{circuit.I, 0, 0}, true
	case "x", "X":
		return builtin{circuit.X, 0, 0}, true
	case "y":
		return builtin{circuit.Y, 0, 0}, true
	case "z":
		return builtin{circuit.Z, 0, 0}, true
	case "h":
		return builtin{circuit.H, 0, 0}, true
	case "s":
		return builtin{circuit.S, 0, 0}, true
	case "sdg":
		return builtin{circuit.Sdg, 0, 0}, true
	case "t":
		return builtin{circuit.T, 0, 0}, true
	case "tdg":
		return builtin{circuit.Tdg, 0, 0}, true
	case "sx":
		return builtin{circuit.SX, 0, 0}, true
	case "sxdg":
		return builtin{circuit.SXdg, 0, 0}, true
	case "rx":
		return builtin{circuit.RX, 1, 0}, true
	case "ry":
		return builtin{circuit.RY, 1, 0}, true
	case "rz":
		return builtin{circuit.RZ, 1, 0}, true
	case "p", "u1":
		return builtin{circuit.P, 1, 0}, true
	case "u2":
		return builtin{circuit.U2, 2, 0}, true
	case "u3", "u", "U":
		return builtin{circuit.U3, 3, 0}, true
	case "cx", "CX", "cnot":
		return builtin{circuit.X, 0, 1}, true
	case "cy":
		return builtin{circuit.Y, 0, 1}, true
	case "cz":
		return builtin{circuit.Z, 0, 1}, true
	case "ch":
		return builtin{circuit.H, 0, 1}, true
	case "csx":
		return builtin{circuit.SX, 0, 1}, true
	case "crx":
		return builtin{circuit.RX, 1, 1}, true
	case "cry":
		return builtin{circuit.RY, 1, 1}, true
	case "crz":
		return builtin{circuit.RZ, 1, 1}, true
	case "cp", "cu1":
		return builtin{circuit.P, 1, 1}, true
	case "cu3":
		return builtin{circuit.U3, 3, 1}, true
	case "ccx", "toffoli":
		return builtin{circuit.X, 0, 2}, true
	case "ccz":
		return builtin{circuit.Z, 0, 2}, true
	case "swap":
		return builtin{circuit.SWAP, 0, 0}, true
	case "cswap", "fredkin":
		return builtin{circuit.SWAP, 0, 1}, true
	}
	return builtin{}, false
}

// emitBuiltin appends one builtin gate to the circuit, validated in place.
// Its Controls and Params are carved from the storage's shared chunks.
func (p *parser) emitBuiltin(name string, b builtin, params []float64, wires []int) error {
	if p.maxGates > 0 && len(p.circ.Gates) == p.maxGates {
		return &LimitError{What: "gates", Limit: p.maxGates}
	}
	targets := 1
	if b.kind == circuit.SWAP {
		targets = 2 // swap ignores any parameters instead of rejecting them
	} else if len(params) != b.params {
		return p.errf("gate %q expects %d parameters, got %d", name, b.params, len(params))
	}
	if len(wires) != b.ctls+targets {
		return p.errf("gate %q expects %d qubits, got %d", name, b.ctls+targets, len(wires))
	}
	// The gate is built in place at the end of the circuit, validated
	// there and kept by extending Gates over it.
	gates := append(p.circ.Gates, circuit.Gate{})
	g := &gates[len(gates)-1]
	g.Kind, g.Target, g.Target2 = b.kind, wires[b.ctls], -1
	if targets == 2 {
		g.Target2 = wires[b.ctls+1]
	} else if b.params > 0 {
		if len(p.params) < b.params {
			p.params = nextChunk(&p.st.params, &p.paramChunk)
		}
		g.Params = p.params[:b.params:b.params]
		p.params = p.params[b.params:]
		copy(g.Params, params)
	}
	if b.ctls > 0 {
		if len(p.ctls) < b.ctls {
			p.ctls = nextChunk(&p.st.ctls, &p.ctlChunk)
		}
		g.Controls = p.ctls[:b.ctls:b.ctls]
		p.ctls = p.ctls[b.ctls:]
		for i, w := range wires[:b.ctls] {
			g.Controls[i] = circuit.Control{Qubit: w}
		}
	}
	if err := g.Validate(p.circ.N); err != nil {
		return p.errf("invalid gate %s: %w", *g, err)
	}
	p.circ.Gates = gates
	return nil
}
