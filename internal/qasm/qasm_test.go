package qasm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/ec"
)

func TestParseMinimal(t *testing.T) {
	prog, err := Parse(`
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
ccx q[0],q[1],q[2];
measure q -> c;
`)
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Circuit
	if c.N != 3 || c.NumGates() != 3 {
		t.Fatalf("n=%d gates=%d", c.N, c.NumGates())
	}
	if c.Gates[0].Kind != circuit.H {
		t.Errorf("gate 0 = %v", c.Gates[0])
	}
	if len(c.Gates[2].Controls) != 2 {
		t.Errorf("ccx parsed with %d controls", len(c.Gates[2].Controls))
	}
	if len(prog.Measurements) != 3 {
		t.Errorf("measurements = %v", prog.Measurements)
	}
}

func TestParseParameterExpressions(t *testing.T) {
	prog, err := Parse(`
qreg q[1];
rz(pi/2) q[0];
u3(pi/4, -pi, 2*pi/3) q[0];
p(0.5+0.25) q[0];
rx(sin(pi/6)) q[0];
ry(2^3) q[0];
`)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Circuit.Gates
	if math.Abs(g[0].Params[0]-math.Pi/2) > 1e-12 {
		t.Errorf("rz param = %g", g[0].Params[0])
	}
	if math.Abs(g[1].Params[1]+math.Pi) > 1e-12 {
		t.Errorf("u3 phi = %g", g[1].Params[1])
	}
	if math.Abs(g[2].Params[0]-0.75) > 1e-12 {
		t.Errorf("p param = %g", g[2].Params[0])
	}
	if math.Abs(g[3].Params[0]-0.5) > 1e-12 {
		t.Errorf("sin(pi/6) = %g", g[3].Params[0])
	}
	if math.Abs(g[4].Params[0]-8) > 1e-12 {
		t.Errorf("2^3 = %g", g[4].Params[0])
	}
}

func TestParseGateMacro(t *testing.T) {
	prog, err := Parse(`
qreg q[2];
gate bell a, b {
  h a;
  cx a, b;
}
gate rot(theta) a {
  rz(theta/2) a;
  rz(theta/2) a;
}
bell q[0], q[1];
rot(pi) q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Circuit
	if c.NumGates() != 4 {
		t.Fatalf("macro expansion produced %d gates: %v", c.NumGates(), c)
	}
	if c.Gates[0].Kind != circuit.H || c.Gates[1].Kind != circuit.X {
		t.Errorf("bell expanded wrong: %v", c.Gates[:2])
	}
	if math.Abs(c.Gates[2].Params[0]-math.Pi/2) > 1e-12 {
		t.Errorf("macro param substitution wrong: %g", c.Gates[2].Params[0])
	}
}

func TestParseNestedMacros(t *testing.T) {
	prog, err := Parse(`
qreg q[2];
gate inner a { x a; }
gate outer a, b { inner a; cx a, b; inner b; }
outer q[0], q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumGates() != 3 {
		t.Fatalf("nested macro gates = %d", prog.Circuit.NumGates())
	}
}

func TestParseBroadcast(t *testing.T) {
	prog, err := Parse(`
qreg q[4];
h q;
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumGates() != 4 {
		t.Fatalf("broadcast produced %d gates", prog.Circuit.NumGates())
	}
}

func TestParseMultipleRegisters(t *testing.T) {
	prog, err := Parse(`
qreg a[2];
qreg b[3];
x a[1];
x b[0];
cx a[0], b[2];
`)
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Circuit
	if c.N != 5 {
		t.Fatalf("flattened width = %d", c.N)
	}
	if c.Gates[0].Target != 1 || c.Gates[1].Target != 2 {
		t.Errorf("register offsets wrong: %v", c.Gates[:2])
	}
	if c.Gates[2].Controls[0].Qubit != 0 || c.Gates[2].Target != 4 {
		t.Errorf("cross-register cx wrong: %v", c.Gates[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`qreg q[2]; x q[5];`,                    // index out of range
		`qreg q[2]; frobnicate q[0];`,           // unknown gate
		`qreg q[0];`,                            // zero-size register
		`qreg q[2]; qreg q[3];`,                 // redeclared
		`qreg q[2]; rz q[0];`,                   // missing parameter
		`qreg q[2]; cx q[0];`,                   // missing qubit
		`x q[0];`,                               // register never declared
		`qreg q[1]; rz(qq) q[0];`,               // unknown identifier in expr
		`qreg q[1]; rz(1/0) q[0];`,              // division by zero
		`qreg q[2]; if (c==1) x q[0];`,          // unsupported
		`OPENQASM 3.0; qreg q[1];`,              // wrong version
		`qreg q[2]; creg c[1]; measure q -> c;`, // width mismatch
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestCommentsAndBarriers(t *testing.T) {
	prog, err := Parse(`
// line comment
qreg q[2]; /* block
comment */ x q[0];
barrier q;
opaque mystery a, b;
x q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumGates() != 2 {
		t.Fatalf("gates = %d", prog.Circuit.NumGates())
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := circuit.New(4, "roundtrip")
	c.H(0).X(1).Y(2).Z(3).S(0).Sdg(1).T(2).Tdg(3).SX(0)
	c.RX(rng.Float64(), 1).RY(rng.Float64(), 2).RZ(rng.Float64(), 3)
	c.Phase(rng.Float64(), 0).U3(rng.Float64(), rng.Float64(), rng.Float64(), 1)
	c.CX(0, 1).CZ(1, 2).CPhase(rng.Float64(), 2, 3)
	c.CCX(0, 1, 2).Swap(2, 3).CSwap(0, 1, 2)
	c.MCXNeg([]circuit.Control{{Qubit: 0, Neg: true}}, 3) // negative control
	src, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, src)
	}
	// Functional equivalence of original and round-tripped circuit.
	r := ec.Check(c, prog.Circuit, ec.Options{Strategy: ec.Proportional})
	if r.Verdict != ec.Equivalent {
		t.Fatalf("round-trip not equivalent: %v\n%s", r.Verdict, src)
	}
}

func TestWriteUnsupported(t *testing.T) {
	c := circuit.New(5, "mcx")
	c.MCX([]int{0, 1, 2}, 4)
	if _, err := WriteString(c); err == nil {
		t.Error("3-controlled X should not be writable")
	}
	c2 := circuit.New(1, "custom")
	c2.Add(circuit.Gate{Kind: circuit.Custom, Target: 0, Target2: -1,
		Mat: [2][2]complex128{{1, 0}, {0, 1}}})
	if _, err := WriteString(c2); err == nil {
		t.Error("custom gate should not be writable")
	}
}

func TestWriteCCZViaH(t *testing.T) {
	c := circuit.New(3, "ccz")
	c.MCZ([]int{0, 1}, 2)
	src, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "ccx") {
		t.Fatalf("ccz not lowered to ccx:\n%s", src)
	}
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := ec.Check(c, prog.Circuit, ec.Options{Strategy: ec.Proportional})
	if r.Verdict != ec.Equivalent {
		t.Fatalf("ccz lowering not equivalent: %v", r.Verdict)
	}
}

func TestParseHeaderOptional(t *testing.T) {
	if _, err := Parse(`qreg q[1]; x q[0];`); err != nil {
		t.Fatalf("headerless parse failed: %v", err)
	}
}

func TestU1AliasAndCu1(t *testing.T) {
	prog, err := Parse(`
qreg q[2];
u1(pi/8) q[0];
cu1(pi/4) q[0], q[1];
u(0.1, 0.2, 0.3) q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Circuit.Gates
	if g[0].Kind != circuit.P || g[1].Kind != circuit.P || len(g[1].Controls) != 1 {
		t.Errorf("u1/cu1 mapping wrong: %v", g[:2])
	}
	if g[2].Kind != circuit.U3 {
		t.Errorf("u mapping wrong: %v", g[2])
	}
}

func TestParseFileAndErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.qasm")
	if err := os.WriteFile(good, []byte("qreg q[2];\ncx q[0],q[1];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := ParseFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Circuit.NumGates() != 1 {
		t.Fatalf("gates = %d", prog.Circuit.NumGates())
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.qasm")); err == nil {
		t.Error("missing file did not error")
	}
	bad := filepath.Join(dir, "bad.qasm")
	os.WriteFile(bad, []byte("qreg q[2]; frob q[0];"), 0o644)
	if _, err := ParseFile(bad); err == nil || !strings.Contains(err.Error(), "bad.qasm") {
		t.Errorf("parse error lacks file context: %v", err)
	}
}

func TestMeasureSingleBits(t *testing.T) {
	prog, err := Parse(`
qreg q[2];
creg c[2];
creg d[1];
measure q[1] -> c[0];
measure q[0] -> d[0];
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Measurements) != 2 {
		t.Fatalf("measurements = %v", prog.Measurements)
	}
	if prog.Measurements[0].Qubit != 1 || prog.Measurements[0].Bit != 0 {
		t.Errorf("measurement 0 = %+v", prog.Measurements[0])
	}
	// d is offset after c in the flattened classical space.
	if prog.Measurements[1].Bit != 2 {
		t.Errorf("measurement 1 = %+v", prog.Measurements[1])
	}
}

func TestMeasureErrors(t *testing.T) {
	cases := []string{
		`qreg q[2]; measure q[0] -> nope[0];`,
		`qreg q[2]; creg c[2]; measure q[0] -> c[5];`,
		`qreg q[2]; measure q[0] -> ;`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestMathFunctionsInExpressions(t *testing.T) {
	prog, err := Parse(`
qreg q[1];
rz(cos(0)) q[0];
rx(tan(0)) q[0];
ry(exp(0)) q[0];
p(ln(exp(1))) q[0];
rz(sqrt(4)) q[0];
`)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Circuit.Gates
	wants := []float64{1, 0, 1, 1, 2}
	for i, w := range wants {
		if math.Abs(g[i].Params[0]-w) > 1e-12 {
			t.Errorf("gate %d param = %g, want %g", i, g[i].Params[0], w)
		}
	}
	if _, err := Parse(`qreg q[1]; rz(frob(1)) q[0];`); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestBlockCommentErrors(t *testing.T) {
	if _, err := Parse("/* unterminated\nqreg q[1];"); err == nil {
		t.Error("unterminated block comment accepted")
	}
	if _, err := Parse(`qreg q[1]; x q[0]; "stray`); err == nil {
		t.Error("unterminated string accepted")
	}
}

// TestNumbersParseInFull: a number token is a float in full or an error,
// never cut to its longest valid prefix, in top-level calls and in macro
// bodies alike.
func TestNumbersParseInFull(t *testing.T) {
	for _, num := range []string{"1.2.3", "1..2", "1e5.5", "2.5e-1.5", "1e", "."} {
		for _, src := range []string{
			"qreg q[1]; rz(" + num + ") q[0];",
			"gate g(t) a { rz(t*" + num + ") a; } qreg q[1]; g(1) q[0];",
		} {
			if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "invalid number") {
				t.Errorf("%q: error %v, want an invalid number", src, err)
			}
		}
	}
	for num, want := range map[string]float64{"1.": 1, ".5": 0.5, "2E-3": 0.002, "007": 7, "1e+2": 100} {
		prog, err := Parse("qreg q[1]; rz(" + num + ") q[0];")
		if err != nil {
			t.Errorf("%s: %v", num, err)
			continue
		}
		if got := prog.Circuit.Gates[0].Params[0]; got != want {
			t.Errorf("%s parsed as %g, want %g", num, got, want)
		}
	}
}

// TestMalformedInputsAreErrors: inputs that once crashed the parser are
// rejected with an error: macros that expand into themselves (the stack
// overflowed), a broadcast over a one-wire register and a wider one (an
// index went out of range) and registers that overflow the wire space
// (a negative qubit count).
func TestMalformedInputsAreErrors(t *testing.T) {
	for src, want := range map[string]string{
		"gate g a { g a; } qreg q[1]; g q[0];":                                         "expands into itself",
		"gate f a { h a; } gate g a { f a; } gate f a { g a; } qreg q[1]; f q[0];":     "expands into itself",
		"qreg a[1]; qreg b[2]; cx a, b;":                                               "broadcast width mismatch",
		"qreg a[9223372036854775807]; qreg b[1];":                                      "overflows the wire space",
		"qreg a[4611686018427387904]; qreg b[4611686018427387904]; creg c[1]; x a[0];": "overflows the wire space",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
}

func TestParseLimited(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ngate pair x, y { cx x, y; cx y, x; }\npair a, b;\n"
	if _, err := ParseLimited(src, 4, 4); err != nil {
		t.Fatalf("a circuit at both limits must parse: %v", err)
	}
	for _, tc := range []struct {
		maxQubits, maxGates int
		what                string
	}{
		{3, 0, "qubits"},
		{0, 3, "gates"},
	} {
		_, err := ParseLimited(src, tc.maxQubits, tc.maxGates)
		var le *LimitError
		if !errors.As(err, &le) || le.What != tc.what {
			t.Errorf("limits %d/%d: err = %v, want a *LimitError on %s", tc.maxQubits, tc.maxGates, err, tc.what)
		}
	}
	if prog, err := Parse(src); err != nil || len(prog.Circuit.Gates) != 4 {
		t.Fatalf("Parse must stay unbounded: %v", err)
	}
}

// emptyMacroChain nests depth empty-body macros, each calling the one below
// four times, so one call performs (4^depth-1)/3 expansions and emits no
// gate.
func emptyMacroChain(depth int) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[1];\ngate m0 a { }\n")
	for k := 1; k < depth; k++ {
		fmt.Fprintf(&b, "gate m%d a { m%[2]d a; m%[2]d a; m%[2]d a; m%[2]d a; }\n", k, k-1)
	}
	fmt.Fprintf(&b, "m%d q[0];\n", depth-1)
	return b.String()
}

// TestParseLimitedMacroCalls: under a gate bound, macro expansions count
// against macroCallsPerGate·maxGates, so a chain of empty macros stops at
// once instead of expanding 4^depth times, while nested macros that emit
// real gates within the bound still parse.
func TestParseLimitedMacroCalls(t *testing.T) {
	start := time.Now()
	_, err := ParseLimited(emptyMacroChain(16), 64, 1000)
	var le *LimitError
	if !errors.As(err, &le) || le.What != "macro calls" || le.Limit != macroCallsPerGate*1000 {
		t.Fatalf("empty chain: err = %v, want a *LimitError on %d macro calls", err, macroCallsPerGate*1000)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejecting the chain took %v", d)
	}

	// Three levels of wrappers around 64 gates: 1+4+16 = 21 macro calls.
	nested := "OPENQASM 2.0;\nqreg q[2];\n" +
		"gate l0 a, b { cx a, b; h a; h b; cx b, a; }\n" +
		"gate l1 a, b { l0 a, b; l0 b, a; l0 a, b; l0 b, a; }\n" +
		"gate l2 a, b { l1 a, b; l1 b, a; l1 a, b; l1 b, a; }\n" +
		"l2 q[0], q[1];\n"
	prog, err := ParseLimited(nested, 2, 64)
	if err != nil || len(prog.Circuit.Gates) != 64 {
		t.Fatalf("nested macros within the bound: err = %v", err)
	}

	// Without a gate bound nothing changes: a shallow empty chain parses to
	// an empty circuit.
	if prog, err := ParseLimited(emptyMacroChain(6), 0, 0); err != nil || len(prog.Circuit.Gates) != 0 {
		t.Fatalf("unbounded parse of a shallow empty chain: err = %v", err)
	}
}
