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
		case p.acceptSymbol(ops[:1]):
			op = ops[0]
		case p.acceptSymbol(ops[1:]):
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
	if p.acceptSymbol("^") {
		if err := p.parsePow(); err != nil { // right-associative
			return err
		}
		p.code = append(p.code, exprOp{op: '^'})
	}
	return nil
}

func (p *parser) parseUnary() error {
	if p.acceptSymbol("-") {
		if err := p.parseUnary(); err != nil {
			return err
		}
		p.code = append(p.code, exprOp{op: opNeg})
		return nil
	}
	if p.acceptSymbol("+") {
		return p.parseUnary()
	}
	t := p.tok
	switch t.kind {
	case tokNumber:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return p.errf("invalid number %q", t.text)
		}
		p.code = append(p.code, exprOp{op: opNum, num: f})
		return nil
	case tokIdent:
		p.advance()
		if p.acceptSymbol("(") {
			if err := p.parseExpr(); err != nil {
				return err
			}
			if err := p.expectSymbol(")"); err != nil {
				return err
			}
			p.code = append(p.code, exprOp{op: opCall, name: t.text})
			return nil
		}
		if t.text == "pi" {
			p.code = append(p.code, exprOp{op: opNum, num: math.Pi})
		} else {
			p.code = append(p.code, exprOp{op: opVar, name: t.text})
		}
		return nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			if err := p.parseExpr(); err != nil {
				return err
			}
			return p.expectSymbol(")")
		}
	}
	return p.errf("unexpected token %q in expression", t.text)
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

// parseGateDef parses `gate name(params) args { body }`.
func (p *parser) parseGateDef() error {
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &macroDef{}
	if p.acceptSymbol("(") {
		for !p.acceptSymbol(")") {
			pn, err := p.expectIdent()
			if err != nil {
				return err
			}
			def.params = append(def.params, pn)
			if !p.acceptSymbol(",") && !p.atSymbol(")") {
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
		if p.tok.kind == tokIdent && p.tok.text == "barrier" {
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
	if p.acceptSymbol("(") {
		for !p.acceptSymbol(")") {
			p.code = p.code[:0]
			if err := p.parseExpr(); err != nil {
				return macroGate{}, err
			}
			mg.params = append(mg.params, slices.Clone(p.code))
			if !p.acceptSymbol(",") && !p.atSymbol(")") {
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
	p.argF = p.argF[:0]
	if p.acceptSymbol("(") {
		for !p.acceptSymbol(")") {
			p.code = p.code[:0]
			if err := p.parseExpr(); err != nil {
				return err
			}
			v, err := p.eval(p.code, nil, nil)
			if err != nil {
				return p.errf("%v", err)
			}
			p.argF = append(p.argF, v)
			if !p.acceptSymbol(",") && !p.atSymbol(")") {
				return p.errf("expected ',' or ')' in parameter list")
			}
		}
	}
	args := p.args[:0]
	for {
		a, err := p.parseIndexedArg(p.qregs, "quantum")
		if err != nil {
			return err
		}
		args = append(args, a)
		if !p.acceptSymbol(",") {
			break
		}
	}
	p.args = args
	if err := p.expectSymbol(";"); err != nil {
		return err
	}

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

// emit resolves a gate name (builtin or macro) to circuit gates.
func (p *parser) emit(name string, params []float64, wires []int) error {
	if b, ok := builtins[name]; ok {
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

var builtins = map[string]builtin{
	"id": {circuit.I, 0, 0}, "x": {circuit.X, 0, 0}, "X": {circuit.X, 0, 0},
	"y": {circuit.Y, 0, 0}, "z": {circuit.Z, 0, 0}, "h": {circuit.H, 0, 0},
	"s": {circuit.S, 0, 0}, "sdg": {circuit.Sdg, 0, 0},
	"t": {circuit.T, 0, 0}, "tdg": {circuit.Tdg, 0, 0},
	"sx": {circuit.SX, 0, 0}, "sxdg": {circuit.SXdg, 0, 0},
	"rx": {circuit.RX, 1, 0}, "ry": {circuit.RY, 1, 0}, "rz": {circuit.RZ, 1, 0},
	"p": {circuit.P, 1, 0}, "u1": {circuit.P, 1, 0},
	"u2": {circuit.U2, 2, 0},
	"u3": {circuit.U3, 3, 0}, "u": {circuit.U3, 3, 0}, "U": {circuit.U3, 3, 0},
	"cx": {circuit.X, 0, 1}, "CX": {circuit.X, 0, 1}, "cnot": {circuit.X, 0, 1},
	"cy": {circuit.Y, 0, 1}, "cz": {circuit.Z, 0, 1}, "ch": {circuit.H, 0, 1},
	"csx": {circuit.SX, 0, 1},
	"crx": {circuit.RX, 1, 1}, "cry": {circuit.RY, 1, 1}, "crz": {circuit.RZ, 1, 1},
	"cp": {circuit.P, 1, 1}, "cu1": {circuit.P, 1, 1},
	"cu3": {circuit.U3, 3, 1},
	"ccx": {circuit.X, 0, 2}, "toffoli": {circuit.X, 0, 2},
	"ccz":   {circuit.Z, 0, 2},
	"swap":  {circuit.SWAP, 0, 0},
	"cswap": {circuit.SWAP, 0, 1}, "fredkin": {circuit.SWAP, 0, 1},
}

// emitBuiltin appends one builtin gate to the circuit, validated in place.
// Its Controls and Params are carved from shared chunks.
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
	g := circuit.Gate{Kind: b.kind, Target: wires[b.ctls], Target2: -1}
	if targets == 2 {
		g.Target2 = wires[b.ctls+1]
	} else if b.params > 0 {
		if len(p.params) < b.params {
			p.params = make([]float64, chunkLen)
		}
		g.Params = p.params[:b.params:b.params]
		p.params = p.params[b.params:]
		copy(g.Params, params)
	}
	if b.ctls > 0 {
		if len(p.ctls) < b.ctls {
			p.ctls = make([]circuit.Control, chunkLen)
		}
		g.Controls = p.ctls[:b.ctls:b.ctls]
		p.ctls = p.ctls[b.ctls:]
		for i, w := range wires[:b.ctls] {
			g.Controls[i] = circuit.Control{Qubit: w}
		}
	}
	if err := p.circ.TryAdd(g); err != nil {
		return fmt.Errorf("qasm: invalid gate %s: %w", g, err)
	}
	return nil
}
