package decompose

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qcec/internal/circuit"
	"qcec/internal/ec"
)

func randomUnitary(rng *rand.Rand) mat2 {
	th := rng.Float64() * math.Pi
	ph := rng.Float64() * 2 * math.Pi
	la := rng.Float64() * 2 * math.Pi
	al := rng.Float64() * 2 * math.Pi
	c := complex(math.Cos(th/2), 0)
	s := complex(math.Sin(th/2), 0)
	g := cmplx.Exp(complex(0, al))
	return mat2{
		{g * c, -g * s * cmplx.Exp(complex(0, la))},
		{g * s * cmplx.Exp(complex(0, ph)), g * c * cmplx.Exp(complex(0, ph+la))},
	}
}

func mat2Close(a, b mat2, tol float64) bool {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

func TestSqrt2(t *testing.T) {
	x := mat2{{0, 1}, {1, 0}}
	v := Sqrt2(x)
	if !mat2Close(mul2(v, v), x, 1e-12) {
		t.Errorf("sqrt(X)^2 != X: %v", v)
	}
	// sqrt of identity-like scalars.
	id := mat2{{1, 0}, {0, 1}}
	if !mat2Close(mul2(Sqrt2(id), Sqrt2(id)), id, 1e-12) {
		t.Error("sqrt(I)^2 != I")
	}
	z := mat2{{1, 0}, {0, -1}}
	v = Sqrt2(z)
	if !mat2Close(mul2(v, v), z, 1e-12) {
		t.Errorf("sqrt(Z)^2 != Z: %v", v)
	}
}

func TestQuickSqrt2RandomUnitaries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUnitary(rng)
		v := Sqrt2(u)
		if checkUnitary2(v) != nil {
			return false
		}
		return mat2Close(mul2(v, v), u, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickZYZRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUnitary(rng)
		a, b, g, d := ZYZ(u)
		return mat2Close(reconstructZYZ(a, b, g, d), u, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZYZSpecialCases(t *testing.T) {
	// Diagonal, anti-diagonal and Hadamard.
	for _, u := range []mat2{
		{{1, 0}, {0, complex(0, 1)}},              // S
		{{0, 1}, {1, 0}},                          // X
		{{0, complex(0, -1)}, {complex(0, 1), 0}}, // Y
		{{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)}, {complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}}, // H
	} {
		a, b, g, d := ZYZ(u)
		if !mat2Close(reconstructZYZ(a, b, g, d), u, 1e-12) {
			t.Errorf("ZYZ round trip failed for %v", u)
		}
	}
}

// checkEquivalent decomposes and verifies strict equivalence.
func checkEquivalent(t *testing.T, c *circuit.Circuit, level Level) *circuit.Circuit {
	t.Helper()
	d := Circuit(c, level)
	if err := d.Validate(); err != nil {
		t.Fatalf("decomposed circuit invalid: %v", err)
	}
	r := ec.Check(c, d, ec.Options{Strategy: ec.Proportional})
	if r.Verdict != ec.Equivalent {
		t.Fatalf("decomposition at %v not equivalent: %v (reason %s)", level, r.Verdict, r.Reason)
	}
	return d
}

func TestControlledUEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		c := circuit.New(2, "cu")
		c.Add(circuit.Gate{Kind: circuit.Custom, Target: 1, Target2: -1,
			Controls: []circuit.Control{{Qubit: 0}}, Custom: &circuit.Unitary{Mat: randomUnitary(rng)}})
		d := checkEquivalent(t, c, LevelCX)
		for _, g := range d.Gates {
			if len(g.Controls) > 1 || (len(g.Controls) == 1 && g.Kind != circuit.X) {
				t.Fatalf("LevelCX output contains %v", g)
			}
		}
	}
}

func TestControlledNamedGates(t *testing.T) {
	c := circuit.New(2, "named")
	c.CZ(0, 1)
	c.Add(circuit.Gate{Kind: circuit.H, Target: 1, Target2: -1, Controls: []circuit.Control{{Qubit: 0}}})
	c.Add(circuit.Gate{Kind: circuit.RZ, Target: 0, Target2: -1, Params: []float64{0.7}, Controls: []circuit.Control{{Qubit: 1}}})
	checkEquivalent(t, c, LevelCX)
}

func TestToffoliCliffordT(t *testing.T) {
	c := circuit.New(3, "ccx")
	c.CCX(0, 1, 2)
	d := checkEquivalent(t, c, LevelCX)
	if d.NumGates() != 15 {
		t.Errorf("Clifford+T Toffoli has %d gates, want 15", d.NumGates())
	}
	for _, g := range d.Gates {
		if len(g.Controls) > 1 {
			t.Fatalf("Toffoli decomposition contains multi-controlled gate %v", g)
		}
	}
}

func TestMCXWithFreeWire(t *testing.T) {
	for ctls := 3; ctls <= 7; ctls++ {
		n := ctls + 2 // one spare wire for the split
		c := circuit.New(n, "mcx")
		controls := make([]int, ctls)
		for i := range controls {
			controls[i] = i
		}
		c.MCX(controls, ctls)
		d := checkEquivalent(t, c, LevelToffoli)
		for _, g := range d.Gates {
			if len(g.Controls) > 2 {
				t.Fatalf("LevelToffoli output contains %v", g)
			}
		}
	}
}

func TestMCXFullRegister(t *testing.T) {
	// No free wire: forces the square-root recursion.
	for ctls := 2; ctls <= 5; ctls++ {
		n := ctls + 1
		c := circuit.New(n, "mcx-full")
		controls := make([]int, ctls)
		for i := range controls {
			controls[i] = i
		}
		c.MCX(controls, ctls)
		checkEquivalent(t, c, LevelCX)
	}
}

func TestMCZAndMCU(t *testing.T) {
	c := circuit.New(4, "mcz")
	c.MCZ([]int{0, 1, 2}, 3)
	checkEquivalent(t, c, LevelCX)

	rng := rand.New(rand.NewSource(2))
	c2 := circuit.New(4, "mcu")
	c2.Add(circuit.Gate{Kind: circuit.Custom, Target: 3, Target2: -1,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2}},
		Custom:   &circuit.Unitary{Mat: randomUnitary(rng)}})
	checkEquivalent(t, c2, LevelCX)
}

func TestNegativeControls(t *testing.T) {
	c := circuit.New(4, "neg")
	c.MCXNeg([]circuit.Control{{Qubit: 0, Neg: true}, {Qubit: 1}, {Qubit: 2, Neg: true}}, 3)
	d := checkEquivalent(t, c, LevelToffoli)
	for _, g := range d.Gates {
		for _, ctl := range g.Controls {
			if ctl.Neg {
				t.Fatalf("negative control survived decomposition: %v", g)
			}
		}
	}
}

func TestControlledSwapLowering(t *testing.T) {
	c := circuit.New(4, "cswap")
	c.Swap(0, 1)
	c.CSwap(2, 0, 1)
	d := checkEquivalent(t, c, LevelCX)
	for _, g := range d.Gates {
		if g.Kind == circuit.SWAP {
			t.Fatalf("SWAP survived LevelCX: %v", g)
		}
	}
}

func TestMultiControlledSwap(t *testing.T) {
	c := circuit.New(5, "ccswap")
	c.Add(circuit.Gate{Kind: circuit.SWAP, Target: 0, Target2: 1,
		Controls: []circuit.Control{{Qubit: 2}, {Qubit: 3}}})
	checkEquivalent(t, c, LevelToffoli)
}

func TestRealisticMCTNetlist(t *testing.T) {
	// A small MCT netlist in the style of the RevLib benchmarks.
	rng := rand.New(rand.NewSource(3))
	n := 7
	c := circuit.New(n, "netlist")
	for i := 0; i < 25; i++ {
		nc := rng.Intn(n-1) + 1
		perm := rng.Perm(n)
		controls := make([]circuit.Control, 0, nc)
		for _, q := range perm[:nc] {
			controls = append(controls, circuit.Control{Qubit: q, Neg: rng.Intn(3) == 0})
		}
		c.MCXNeg(controls, perm[nc])
	}
	d := checkEquivalent(t, c, LevelCX)
	if d.NumGates() <= c.NumGates() {
		t.Errorf("decomposition did not grow the circuit (%d -> %d)", c.NumGates(), d.NumGates())
	}
	t.Logf("MCT netlist: %d gates -> %d gates at LevelCX", c.NumGates(), d.NumGates())
}

func TestBlowupScalesWithControls(t *testing.T) {
	// The gate-count blowup must grow with the control count — the
	// structural reason the paper's reversible G' circuits are so large.
	prev := 0
	for ctls := 2; ctls <= 8; ctls++ {
		c := circuit.New(ctls+2, "scale")
		controls := make([]int, ctls)
		for i := range controls {
			controls[i] = i
		}
		c.MCX(controls, ctls)
		d := Circuit(c, LevelCX)
		if d.NumGates() <= prev {
			t.Fatalf("no growth at %d controls: %d gates", ctls, d.NumGates())
		}
		prev = d.NumGates()
	}
}

func TestIdentityCustomSkipped(t *testing.T) {
	c := circuit.New(2, "id")
	c.Add(circuit.Gate{Kind: circuit.Custom, Target: 0, Target2: -1,
		Controls: []circuit.Control{{Qubit: 1}}, Custom: &circuit.Unitary{Mat: mat2{{1, 0}, {0, 1}}}})
	d := Circuit(c, LevelCX)
	if d.NumGates() != 0 {
		t.Errorf("identity custom gate emitted %d gates", d.NumGates())
	}
}

func TestWithProfileSumsToOutput(t *testing.T) {
	c := circuit.New(6, "netlist")
	c.H(0).CCX(0, 1, 2).Swap(2, 3).CPhase(0.7, 3, 4).T(5)
	c.Add(circuit.Gate{Kind: circuit.X, Target: 5, Target2: -1,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2}, {Qubit: 3}}})
	for _, level := range []Level{LevelToffoli, LevelCX} {
		out, profile := WithProfile(c, level)
		if len(profile) != len(c.Gates) {
			t.Fatalf("%v: profile length %d, want %d", level, len(profile), len(c.Gates))
		}
		sum := 0
		for i, f := range profile {
			if f < 0 {
				t.Errorf("%v: negative profile entry %d at gate %d", level, f, i)
			}
			sum += f
		}
		if sum != len(out.Gates) {
			t.Errorf("%v: profile sums to %d, output has %d gates", level, sum, len(out.Gates))
		}
		// WithProfile must emit exactly what Circuit emits.
		plain := Circuit(c, level)
		if r := ec.Check(out, plain, ec.Options{Strategy: ec.Proportional}); !r.Equivalent() {
			t.Errorf("%v: WithProfile output differs from Circuit output: %v", level, r.Verdict)
		}
	}
}
