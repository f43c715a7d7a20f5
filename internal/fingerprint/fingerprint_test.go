package fingerprint

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qcec/internal/circuit"
	"qcec/internal/qasm"
	"qcec/internal/revlib"
)

func parse(t *testing.T, src string) *circuit.Circuit {
	t.Helper()
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog.Circuit
}

func TestPairOrderInvariance(t *testing.T) {
	a := circuit.New(3, "a").H(0).CX(0, 1).T(2)
	b := circuit.New(3, "b").X(2).CCX(0, 1, 2)
	if Pair(a, b) != Pair(b, a) {
		t.Errorf("Pair(a, b) != Pair(b, a)")
	}
	if Pair(a, a) == Pair(a, b) {
		t.Errorf("Pair(a, a) collides with Pair(a, b)")
	}
	// The pair digest must separate (a, b) from (a, a) and (b, b) even
	// though all use the same member set sizes.
	if Pair(a, b) == Pair(b, b) {
		t.Errorf("Pair(a, b) collides with Pair(b, b)")
	}
}

func TestWhitespaceAndCommentInsensitivity(t *testing.T) {
	clean := "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
	noisy := "// a GHZ prelude\nOPENQASM 2.0;\n\n\nqreg q[2];\n   h    q[0] ;\n// entangle\n\tcx q[0] , q[1];\n"
	if Circuit(parse(t, clean)) != Circuit(parse(t, noisy)) {
		t.Errorf("whitespace/comment variants hash differently")
	}
}

func TestGateNameAliasInsensitivity(t *testing.T) {
	aliases := [][2]string{
		{"cx q[0],q[1];", "CX q[0],q[1];"},
		{"cx q[0],q[1];", "cnot q[0],q[1];"},
		{"p(0.5) q[0];", "u1(0.5) q[0];"},
		{"u3(0.1,0.2,0.3) q[0];", "u(0.1,0.2,0.3) q[0];"},
		{"ccx q[0],q[1],q[2];", "toffoli q[0],q[1],q[2];"},
		{"cswap q[0],q[1],q[2];", "fredkin q[0],q[1],q[2];"},
		{"x q[1];", "X q[1];"},
	}
	for _, pair := range aliases {
		pre := "OPENQASM 2.0;\nqreg q[3];\n"
		da := Circuit(parse(t, pre+pair[0]))
		db := Circuit(parse(t, pre+pair[1]))
		if da != db {
			t.Errorf("aliases %q and %q hash differently", pair[0], pair[1])
		}
	}
}

func TestGateSymmetries(t *testing.T) {
	// SWAP targets are unordered.
	a := circuit.New(2, "a").Swap(0, 1)
	b := circuit.New(2, "b").Swap(1, 0)
	if Circuit(a) != Circuit(b) {
		t.Errorf("swap a,b and swap b,a hash differently")
	}
	// Control sets are unordered.
	c1 := circuit.New(3, "c1").MCX([]int{0, 1}, 2)
	c2 := circuit.New(3, "c2").MCX([]int{1, 0}, 2)
	if Circuit(c1) != Circuit(c2) {
		t.Errorf("control order changes the digest")
	}
	// ... but control polarity is part of the element.
	c3 := circuit.New(3, "c3").MCXNeg([]circuit.Control{{Qubit: 0, Neg: true}, {Qubit: 1}}, 2)
	if Circuit(c1) == Circuit(c3) {
		t.Errorf("negative control collides with positive control")
	}
	// -0.0 and +0.0 are the same rotation angle.
	r1 := circuit.New(1, "r1").RZ(0.0, 0)
	r2 := circuit.New(1, "r2").RZ(math.Copysign(0, -1), 0)
	if Circuit(r1) != Circuit(r2) {
		t.Errorf("rz(-0.0) and rz(0.0) hash differently")
	}
}

func TestSemanticDifferencesSplit(t *testing.T) {
	base := circuit.New(2, "base").H(0).CX(0, 1)
	cases := map[string]*circuit.Circuit{
		"extra gate":      circuit.New(2, "x").H(0).CX(0, 1).X(0),
		"different order": circuit.New(2, "o").CX(0, 1).H(0),
		"other target":    circuit.New(2, "t").H(1).CX(0, 1),
		"other kind":      circuit.New(2, "k").H(0).CZ(0, 1),
		"other param":     circuit.New(2, "p").H(0).CX(0, 1).RZ(1e-9, 0),
	}
	seen := map[Digest]string{Circuit(base): "base"}
	for name, c := range cases {
		d := Circuit(c)
		if prev, dup := seen[d]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[d] = name
	}
	// Gate-boundary ambiguity: [h, x] on one qubit vs [hx-as-custom] must not
	// alias through the serialization (prefix-freedom per gate).
	g1 := circuit.New(1, "g1").H(0).X(0)
	g2 := circuit.New(1, "g2").H(0)
	if Circuit(g1) == Circuit(g2) {
		t.Errorf("gate-count difference does not change the digest")
	}
}

// TestSeedSetDistinct loads every seed circuit shipped in circuits/ and
// requires pairwise distinct digests — the property the verdict cache's
// soundness rests on.
func TestSeedSetDistinct(t *testing.T) {
	dir := filepath.Join("..", "..", "circuits")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read seed dir: %v", err)
	}
	digests := map[Digest]string{}
	loaded := 0
	for _, e := range entries {
		var c *circuit.Circuit
		src, readErr := os.ReadFile(filepath.Join(dir, e.Name()))
		if readErr != nil {
			t.Fatalf("read %s: %v", e.Name(), readErr)
		}
		switch {
		case strings.HasSuffix(e.Name(), ".qasm"):
			prog, err := qasm.Parse(string(src))
			if err != nil {
				t.Fatalf("parse %s: %v", e.Name(), err)
			}
			c = prog.Circuit
		case strings.HasSuffix(e.Name(), ".real"):
			rf, err := revlib.Parse(strings.NewReader(string(src)))
			if err != nil {
				t.Fatalf("parse %s: %v", e.Name(), err)
			}
			c = rf.Circuit
		default:
			continue
		}
		d := Circuit(c)
		if prev, dup := digests[d]; dup {
			t.Errorf("seed circuits %s and %s share a digest", e.Name(), prev)
		}
		digests[d] = e.Name()
		loaded++
	}
	if loaded < 3 {
		t.Fatalf("only %d seed circuits loaded; expected the shipped set", loaded)
	}
}

func TestDigestStableAcrossCalls(t *testing.T) {
	c := circuit.New(4, "c").H(0).CX(0, 1).CCX(0, 1, 2).RZ(0.25, 3)
	if Circuit(c) != Circuit(c) {
		t.Errorf("digest not deterministic")
	}
	if got, want := len(Circuit(c).String()), 64; got != want {
		t.Errorf("hex digest length = %d, want %d", got, want)
	}
}

// TestParseDigestRoundTrip: ParseDigest inverts Digest.String, which the
// qcecd journal stores, and rejects anything but one digest's worth of hex.
func TestParseDigestRoundTrip(t *testing.T) {
	d := Pair(circuit.New(2, "a").H(0).CX(0, 1), circuit.New(2, "b").X(1))
	got, err := ParseDigest(d.String())
	if err != nil || got != d {
		t.Fatalf("ParseDigest(%s) = %s, %v; want the digest back", d, got, err)
	}
	s := d.String()
	for _, bad := range []string{"", s[:62], s + "0", s + "00", s[:63], s[:63] + "g", s[:62] + "zz", " " + s[1:]} {
		if got, err := ParseDigest(bad); err == nil || got != (Digest{}) {
			t.Errorf("ParseDigest(%q) = %s, %v; want a zero digest and an error", bad, got, err)
		}
	}
}
