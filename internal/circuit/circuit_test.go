package circuit

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mat2Unitary(u [2][2]complex128, tol float64) bool {
	// u * u† = I
	conj := func(c complex128) complex128 { return cmplx.Conj(c) }
	e00 := u[0][0]*conj(u[0][0]) + u[0][1]*conj(u[0][1])
	e01 := u[0][0]*conj(u[1][0]) + u[0][1]*conj(u[1][1])
	e10 := u[1][0]*conj(u[0][0]) + u[1][1]*conj(u[0][1])
	e11 := u[1][0]*conj(u[1][0]) + u[1][1]*conj(u[1][1])
	return cmplx.Abs(e00-1) < tol && cmplx.Abs(e11-1) < tol &&
		cmplx.Abs(e01) < tol && cmplx.Abs(e10) < tol
}

func mat2Mul(a, b [2][2]complex128) [2][2]complex128 {
	var r [2][2]complex128
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			r[i][j] = a[i][0]*b[0][j] + a[i][1]*b[1][j]
		}
	}
	return r
}

func mat2IsIdentity(u [2][2]complex128, tol float64) bool {
	return cmplx.Abs(u[0][0]-1) < tol && cmplx.Abs(u[1][1]-1) < tol &&
		cmplx.Abs(u[0][1]) < tol && cmplx.Abs(u[1][0]) < tol
}

func allFixedKinds() []Gate {
	return []Gate{
		oneQ(I, 0), oneQ(X, 0), oneQ(Y, 0), oneQ(Z, 0), oneQ(H, 0),
		oneQ(S, 0), oneQ(Sdg, 0), oneQ(T, 0), oneQ(Tdg, 0),
		oneQ(SX, 0), oneQ(SXdg, 0),
	}
}

func TestFixedGateMatricesUnitary(t *testing.T) {
	for _, g := range allFixedKinds() {
		if !mat2Unitary(g.Matrix(), 1e-12) {
			t.Errorf("%v matrix not unitary", g.Kind)
		}
	}
}

func TestParamGateMatricesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		th := rng.Float64()*4*math.Pi - 2*math.Pi
		ph := rng.Float64()*4*math.Pi - 2*math.Pi
		la := rng.Float64()*4*math.Pi - 2*math.Pi
		for _, g := range []Gate{
			oneQ(RX, 0, th), oneQ(RY, 0, th), oneQ(RZ, 0, th), oneQ(P, 0, la),
			oneQ(U2, 0, ph, la), oneQ(U3, 0, th, ph, la),
		} {
			if !mat2Unitary(g.Matrix(), 1e-12) {
				t.Errorf("%v(%v) matrix not unitary", g.Kind, g.Params)
			}
		}
	}
}

func TestInverseGivesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gates := allFixedKinds()
	for i := 0; i < 30; i++ {
		gates = append(gates,
			oneQ(RX, 0, rng.Float64()*7-3.5),
			oneQ(RY, 0, rng.Float64()*7-3.5),
			oneQ(RZ, 0, rng.Float64()*7-3.5),
			oneQ(P, 0, rng.Float64()*7-3.5),
			oneQ(U2, 0, rng.Float64()*7-3.5, rng.Float64()*7-3.5),
			oneQ(U3, 0, rng.Float64()*7-3.5, rng.Float64()*7-3.5, rng.Float64()*7-3.5),
		)
	}
	gates = append(gates, Gate{
		Kind: Custom, Target: 0, Target2: -1,
		Mat: oneQ(U3, 0, 0.3, 0.7, -1.1).Matrix(),
	})
	for _, g := range gates {
		prod := mat2Mul(g.Inverse().Matrix(), g.Matrix())
		if !mat2IsIdentity(prod, 1e-12) {
			t.Errorf("%v inverse wrong: product %v", g.Kind, prod)
		}
	}
}

func TestKnownMatrices(t *testing.T) {
	x := oneQ(X, 0).Matrix()
	if x[0][1] != 1 || x[1][0] != 1 || x[0][0] != 0 || x[1][1] != 0 {
		t.Errorf("X = %v", x)
	}
	// SX^2 = X
	sx := oneQ(SX, 0).Matrix()
	if prod := mat2Mul(sx, sx); cmplx.Abs(prod[0][1]-1) > 1e-12 || cmplx.Abs(prod[1][0]-1) > 1e-12 {
		t.Errorf("SX^2 = %v, want X", prod)
	}
	// T^2 = S
	tm := oneQ(T, 0).Matrix()
	s := oneQ(S, 0).Matrix()
	if prod := mat2Mul(tm, tm); cmplx.Abs(prod[1][1]-s[1][1]) > 1e-12 {
		t.Errorf("T^2 = %v, want S", prod)
	}
	// RZ(pi) = -i Z (up to phase), P(pi) = Z exactly.
	pPi := oneQ(P, 0, math.Pi).Matrix()
	if cmplx.Abs(pPi[1][1]+1) > 1e-12 {
		t.Errorf("P(pi) = %v, want Z", pPi)
	}
	// U3(0,0,l) = P(l)
	u := oneQ(U3, 0, 0, 0, 0.77).Matrix()
	p := oneQ(P, 0, 0.77).Matrix()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(u[i][j]-p[i][j]) > 1e-12 {
				t.Errorf("U3(0,0,l) != P(l): %v vs %v", u, p)
			}
		}
	}
}

func TestSwapMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SWAP.Matrix() did not panic")
		}
	}()
	Gate{Kind: SWAP, Target: 0, Target2: 1}.Matrix()
}

func TestBuilderAndValidation(t *testing.T) {
	c := New(3, "test")
	c.H(0).CX(0, 1).CCX(0, 1, 2).Swap(1, 2).RZ(0.5, 0)
	if c.NumGates() != 5 {
		t.Fatalf("NumGates = %d", c.NumGates())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.TwoQubitGates() != 3 {
		t.Errorf("TwoQubitGates = %d", c.TwoQubitGates())
	}
	if c.MaxControls() != 2 {
		t.Errorf("MaxControls = %d", c.MaxControls())
	}
	counts := c.GateCounts()
	if counts["cx"] != 1 || counts["ccx"] != 1 || counts["h"] != 1 {
		t.Errorf("GateCounts = %v", counts)
	}
}

func TestAddPanicsOnBadGates(t *testing.T) {
	cases := []func(*Circuit){
		func(c *Circuit) { c.X(3) },                                      // out of range
		func(c *Circuit) { c.X(-1) },                                     // negative
		func(c *Circuit) { c.CX(1, 1) },                                  // control == target
		func(c *Circuit) { c.Swap(2, 2) },                                // swap same qubit
		func(c *Circuit) { c.MCX([]int{0, 0}, 1) },                       // duplicate control
		func(c *Circuit) { c.Add(oneQ(RZ, 0)) },                          // missing param
		func(c *Circuit) { c.Add(Gate{Kind: X, Target: 0, Target2: 2}) }, // stray Target2
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f(New(3, "bad"))
		}()
	}
}

func TestDepth(t *testing.T) {
	c := New(3, "depth")
	c.H(0).H(1).H(2) // one layer
	if d := c.Depth(); d != 1 {
		t.Fatalf("depth after parallel layer = %d", d)
	}
	c.CX(0, 1) // second layer
	c.X(2)     // fits into second layer
	if d := c.Depth(); d != 2 {
		t.Fatalf("depth = %d", d)
	}
	c.CX(1, 2) // third layer
	if d := c.Depth(); d != 3 {
		t.Fatalf("depth = %d", d)
	}
}

func TestInverseCircuit(t *testing.T) {
	c := New(2, "fwd")
	c.H(0).CX(0, 1).T(1).RZ(0.3, 0)
	inv := c.Inverse()
	if inv.NumGates() != c.NumGates() {
		t.Fatal("inverse changed gate count")
	}
	// First gate of inverse is inverse of last gate of original.
	if inv.Gates[0].Kind != RZ || inv.Gates[0].Params[0] != -0.3 {
		t.Errorf("inverse order wrong: %v", inv.Gates[0])
	}
	if inv.Gates[1].Kind != Tdg {
		t.Errorf("T inverse = %v", inv.Gates[1].Kind)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New(3, "orig")
	c.MCX([]int{0, 1}, 2).RZ(0.5, 0)
	d := c.Clone()
	d.Gates[0].Controls[0].Qubit = 1 // mutate clone
	d.Gates[1].Params[0] = 9
	if c.Gates[0].Controls[0].Qubit != 0 {
		t.Error("Clone shares control slice")
	}
	if c.Gates[1].Params[0] != 0.5 {
		t.Error("Clone shares param slice")
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Kind: X, Target: 2, Target2: -1, Controls: []Control{{Qubit: 0}, {Qubit: 1, Neg: true}}}
	s := g.String()
	if !strings.Contains(s, "ccx") || !strings.Contains(s, "!q[1]") {
		t.Errorf("String = %q", s)
	}
	sw := Gate{Kind: SWAP, Target: 0, Target2: 1}
	if got := sw.String(); !strings.Contains(got, "swap q[0],q[1]") {
		t.Errorf("swap String = %q", got)
	}
}

func TestGateEqual(t *testing.T) {
	a := Gate{Kind: X, Target: 1, Target2: -1, Controls: []Control{{Qubit: 0}, {Qubit: 2}}}
	b := Gate{Kind: X, Target: 1, Target2: -1, Controls: []Control{{Qubit: 2}, {Qubit: 0}}}
	if !a.Equal(b) {
		t.Error("control order must not matter for Equal")
	}
	c := Gate{Kind: X, Target: 1, Target2: -1, Controls: []Control{{Qubit: 0}, {Qubit: 2, Neg: true}}}
	if a.Equal(c) {
		t.Error("polarity must matter for Equal")
	}
}

func TestAppendRegisterMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with mismatched register did not panic")
		}
	}()
	New(2, "a").Append(New(3, "b"))
}

// Property: Inverse twice returns a circuit with gates equal to the original.
func TestQuickDoubleInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(4, "rand")
		for i := 0; i < 15; i++ {
			switch rng.Intn(5) {
			case 0:
				c.H(rng.Intn(4))
			case 1:
				c.T(rng.Intn(4))
			case 2:
				a := rng.Intn(4)
				c.CX(a, (a+1)%4)
			case 3:
				c.RZ(rng.Float64(), rng.Intn(4))
			case 4:
				a := rng.Intn(4)
				c.Swap(a, (a+2)%4)
			}
		}
		inv2 := c.Inverse().Inverse()
		if len(inv2.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			if !c.Gates[i].Equal(inv2.Gates[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every kind's inverse matrix is the conjugate transpose.
func TestQuickInverseIsAdjoint(t *testing.T) {
	f := func(th, ph, la float64) bool {
		th, ph, la = math.Mod(th, 7), math.Mod(ph, 7), math.Mod(la, 7)
		if math.IsNaN(th) || math.IsNaN(ph) || math.IsNaN(la) {
			return true
		}
		g := oneQ(U3, 0, th, ph, la)
		inv := g.Inverse().Matrix()
		m := g.Matrix()
		adj := [2][2]complex128{
			{cmplx.Conj(m[0][0]), cmplx.Conj(m[1][0])},
			{cmplx.Conj(m[0][1]), cmplx.Conj(m[1][1])},
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if cmplx.Abs(inv[i][j]-adj[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllBuilders(t *testing.T) {
	c := New(4, "builders")
	c.X(0).Y(1).Z(2).H(3).S(0).Sdg(1).T(2).Tdg(3).SX(0)
	c.RX(0.1, 1).RY(0.2, 2).RZ(0.3, 3).Phase(0.4, 0).U3(0.5, 0.6, 0.7, 1)
	c.CX(0, 1).CZ(1, 2).CPhase(0.8, 2, 3).CCX(0, 1, 2)
	c.MCX([]int{0, 1}, 3).MCXNeg([]Control{{Qubit: 0, Neg: true}}, 2).MCZ([]int{0, 1}, 3)
	c.Swap(0, 1).CSwap(2, 0, 1)
	c.Add(Gate{Kind: I, Target: 0, Target2: -1})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 24 {
		t.Fatalf("NumGates = %d", c.NumGates())
	}
	// String renders every gate plus a header line.
	s := c.String()
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 25 {
		t.Fatalf("String rendered %d lines:\n%s", len(strings.Split(s, "\n")), s)
	}
	// Append merges circuits.
	d := New(4, "tail")
	d.H(0)
	c.Append(d)
	if c.NumGates() != 25 {
		t.Fatalf("Append: NumGates = %d", c.NumGates())
	}
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n, "bad")
		}()
	}
}

func TestKindStringAndNumParams(t *testing.T) {
	for _, k := range []Kind{I, X, Y, Z, H, S, Sdg, T, Tdg, SX, SXdg, RX, RY, RZ, P, U2, U3, SWAP, Custom} {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
	wants := map[Kind]int{RX: 1, RY: 1, RZ: 1, P: 1, U2: 2, U3: 3, X: 0, SWAP: 0}
	for k, want := range wants {
		if got := k.NumParams(); got != want {
			t.Errorf("%v.NumParams() = %d, want %d", k, got, want)
		}
	}
}

// TestTryAddErrors pins TryAdd's checks, their order and their messages:
// a wire out of range is reported before a duplicate, and a duplicate is
// found whether it repeats a target, the second SWAP target or an earlier
// control.
func TestTryAddErrors(t *testing.T) {
	ctl := func(qs ...int) []Control {
		cs := make([]Control, len(qs))
		for i, q := range qs {
			cs[i] = Control{Qubit: q, Neg: i%2 == 1}
		}
		return cs
	}
	cases := []struct {
		g    Gate
		want string
	}{
		{Gate{Kind: X, Target: 3, Target2: -1}, "qubit 3 out of range [0,3)"},
		{Gate{Kind: SWAP, Target: 0, Target2: 0}, "SWAP targets coincide on qubit 0"},
		{Gate{Kind: SWAP, Target: 0, Target2: 5}, "qubit 5 out of range [0,3)"},
		{Gate{Kind: X, Target: 0, Target2: 1}, "gate x must not set Target2"},
		{Gate{Kind: X, Target: 0, Target2: -1, Controls: ctl(0)}, "qubit 0 used twice in one gate"},
		{Gate{Kind: SWAP, Target: 0, Target2: 2, Controls: ctl(1, 2)}, "qubit 2 used twice in one gate"},
		{Gate{Kind: X, Target: 0, Target2: -1, Controls: ctl(1, 2, 1)}, "qubit 1 used twice in one gate"},
		{Gate{Kind: X, Target: 0, Target2: -1, Controls: ctl(1, 1, 7)}, "qubit 1 used twice in one gate"},
		{Gate{Kind: X, Target: 0, Target2: -1, Controls: ctl(1, 7, 1)}, "qubit 7 out of range [0,3)"},
		{Gate{Kind: RZ, Target: 0, Target2: -1, Controls: ctl(2)}, "gate rz requires 1 parameters, got 0"},
	}
	for _, tc := range cases {
		c := New(3, "errs")
		err := c.TryAdd(tc.g)
		if err == nil || err.Error() != tc.want {
			t.Errorf("TryAdd(%v) = %v, want %q", tc.g, err, tc.want)
		}
		if len(c.Gates) != 0 {
			t.Errorf("TryAdd(%v) appended a rejected gate", tc.g)
		}
	}
	c := New(3, "ok")
	if err := c.TryAdd(Gate{Kind: SWAP, Target: 2, Target2: 0, Controls: ctl(1)}); err != nil {
		t.Errorf("controlled SWAP on distinct wires rejected: %v", err)
	}
}
