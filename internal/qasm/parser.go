package qasm

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"qcec/internal/circuit"
)

// Register describes a declared quantum or classical register and its offset
// in the flattened wire space.
type Register struct {
	Name   string
	Size   int
	Offset int
}

// Measurement records a `measure q -> c` statement.
type Measurement struct {
	Qubit int // flattened qubit index
	Bit   int // flattened classical bit index
}

// Program is the result of parsing an OpenQASM source.
type Program struct {
	Circuit      *circuit.Circuit
	QRegs        []Register
	CRegs        []Register
	Measurements []Measurement
}

// macroGate is one statement inside a user gate definition.
type macroGate struct {
	name   string
	params [][]exprOp // compiled parameter expressions
	args   []string   // formal qubit argument names
}

type macroDef struct {
	params []string
	args   []string
	body   []macroGate
	// expanding is set while a call of the macro is being expanded; a
	// nested call of the same macro would recurse forever.
	expanding bool
}

// chunkLen is the length of the shared chunks gates' Controls and Params
// are carved from.  It must cover the widest builtin gate (3 entries).
const chunkLen = 512

type parser struct {
	lex lexer
	tok token // current token

	qregs  []Register
	cregs  []Register
	macros map[string]*macroDef

	// circ receives the gates as they are parsed; its N is the width of
	// the registers declared so far, which bounds every wire a gate can
	// name, so validating on append matches validating the finished
	// circuit.
	circ     *circuit.Circuit
	ctls     []circuit.Control // unused tail of the current Controls chunk
	params   []float64         // unused tail of the current Params chunk
	measures []Measurement

	// maxQubits and maxGates bound the circuit the parse may build, and
	// maxMacroCalls the macro expansions it may perform (see ParseLimited);
	// zero or negative is unbounded.  macroCalls counts the expansions.
	maxQubits, maxGates       int
	maxMacroCalls, macroCalls int

	// Scratch reused across statements: compiled expression code and its
	// value stack, the qubit arguments of a top-level call, and argument
	// stacks holding the parameter values and wires of the call being
	// emitted, with those of nested macro calls pushed above them.
	code  []exprOp
	stack []float64
	args  []qubitArg
	argF  []float64
	argW  []int
}

func (p *parser) advance()    { p.tok = p.lex.next() }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

// atSymbol reports whether the current token is the punctuation s.
func (p *parser) atSymbol(s string) bool {
	return (p.tok.kind == tokSymbol || p.tok.kind == tokArrow) && p.tok.text == s
}

func (p *parser) expectSymbol(s string) error {
	if !p.atSymbol(s) {
		return p.errf("expected %q, got %q", s, p.tok.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if p.atSymbol(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.tok
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.tok
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

// Parse parses OpenQASM 2.0 source text.
func Parse(src string) (*Program, error) { return ParseLimited(src, 0, 0) }

// LimitError reports a source whose circuit passes a ParseLimited bound.
type LimitError struct {
	What  string // "qubits", "gates" or "macro calls"
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("qasm: circuit exceeds the limit of %d %s", e.Limit, e.What)
}

// macroCallsPerGate sizes ParseLimited's budget of macro expansions: a
// source may expand macroCallsPerGate·maxGates macro calls, enough for
// wrappers nested that deep around every gate it may emit.
const macroCallsPerGate = 4

// ParseLimited parses like Parse, but stops with a *LimitError at the first
// register declaration that takes the total width past maxQubits, at the
// first gate past maxGates (counted after broadcasts and macro expansion),
// or, when maxGates bounds the gates, at the first macro call past
// macroCallsPerGate·maxGates; zero or negative is unbounded.  A short
// source can ask for far more: a broadcast over a huge register emits one
// gate per wire, and nested macros expand exponentially — even macros with
// empty bodies, which emit no gate at all — so the bounds are checked while
// the circuit is built rather than after.
func ParseLimited(src string, maxQubits, maxGates int) (*Program, error) {
	// Pre-size the gate slice from the statement count, but never beyond
	// one gate per 7 source bytes (the shortest gate statement, `x q[0];`),
	// so a body of bare semicolons cannot buy an outsized allocation.
	hint := min(strings.Count(src, ";"), len(src)/7)
	if maxGates > 0 {
		hint = min(hint, maxGates)
	}
	p := &parser{
		lex:       lexer{src: src, line: 1},
		macros:    make(map[string]*macroDef),
		circ:      &circuit.Circuit{Gates: make([]circuit.Gate, 0, hint)},
		maxQubits: maxQubits,
		maxGates:  maxGates,
	}
	if maxGates > 0 {
		p.maxMacroCalls = macroCallsPerGate * maxGates
	}
	p.advance()
	prog, err := p.parse()
	if p.lex.err != nil {
		return nil, p.lex.err
	}
	return prog, err
}

// ParseFile parses an OpenQASM 2.0 file.
func ParseFile(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, nil
}

func (p *parser) parse() (*Program, error) {
	if err := p.parseHeader(); err != nil {
		return nil, err
	}
	for !p.atEOF() {
		if err := p.parseStatement(); err != nil {
			return nil, err
		}
	}
	if p.circ.N == 0 {
		return nil, fmt.Errorf("qasm: no quantum registers declared")
	}
	p.circ.Name = "qasm"
	if len(p.qregs) == 1 {
		p.circ.Name = p.qregs[0].Name
	}
	return &Program{
		Circuit:      p.circ,
		QRegs:        p.qregs,
		CRegs:        p.cregs,
		Measurements: p.measures,
	}, nil
}

func (p *parser) parseHeader() error {
	if p.tok.kind == tokIdent && p.tok.text == "OPENQASM" {
		p.advance()
		if p.tok.kind != tokNumber {
			return p.errf("expected version number")
		}
		if v := p.tok.text; v != "2.0" && v != "2" {
			return p.errf("unsupported OPENQASM version %s", v)
		}
		p.advance()
		return p.expectSymbol(";")
	}
	return nil // header is optional in practice
}

func (p *parser) parseStatement() error {
	t := p.tok
	if t.kind != tokIdent {
		return p.errf("expected statement, got %q", t.text)
	}
	switch t.text {
	case "include":
		p.advance()
		if p.tok.kind != tokString {
			return p.errf("expected file name after include")
		}
		p.advance()
		return p.expectSymbol(";")
	case "qreg":
		if err := p.parseReg(&p.qregs); err != nil {
			return err
		}
		r := p.qregs[len(p.qregs)-1]
		p.circ.N = r.Offset + r.Size
		if p.maxQubits > 0 && p.circ.N > p.maxQubits {
			return &LimitError{What: "qubits", Limit: p.maxQubits}
		}
		return nil
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
	for !p.atEOF() && !p.atSymbol(";") {
		p.advance()
	}
	return p.expectSymbol(";")
}

func (p *parser) parseReg(regs *[]Register) error {
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
	*regs = append(*regs, Register{Name: name, Size: size, Offset: offset})
	return nil
}

// findReg returns the register of regs named name.
func findReg(regs []Register, name string) (Register, bool) {
	for _, r := range regs {
		if r.Name == name {
			return r, true
		}
	}
	return Register{}, false
}

// qubitArg is a run of wires: one wire (size 1) or a whole register, which
// broadcasts the statement over its wires.
type qubitArg struct {
	off, size int
	whole     bool
}

// parseIndexedArg parses `name` or `name[i]` against regs; kind names the
// register kind in errors.
func (p *parser) parseIndexedArg(regs []Register, kind string) (qubitArg, error) {
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
		r, ok := findReg(regs, name)
		if !ok {
			return qubitArg{}, p.errf("unknown %s register %q", kind, name)
		}
		if idx < 0 || idx >= r.Size {
			return qubitArg{}, p.errf("index %d out of range for register %q[%d]", idx, name, r.Size)
		}
		return qubitArg{off: r.Offset + idx, size: 1}, nil
	}
	r, ok := findReg(regs, name)
	if !ok {
		return qubitArg{}, p.errf("unknown %s register %q", kind, name)
	}
	return qubitArg{off: r.Offset, size: r.Size, whole: true}, nil
}

func (p *parser) parseMeasure() error {
	p.advance()
	q, err := p.parseIndexedArg(p.qregs, "quantum")
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	c, err := p.parseIndexedArg(p.cregs, "classical")
	if err != nil {
		return err
	}
	if q.size != c.size {
		return p.errf("measure width mismatch (%d qubits, %d bits)", q.size, c.size)
	}
	for i := 0; i < q.size; i++ {
		p.measures = append(p.measures, Measurement{Qubit: q.off + i, Bit: c.off + i})
	}
	return p.expectSymbol(";")
}
