package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qcec/internal/cn"
	"qcec/internal/dense"
)

var (
	xMat = [2][2]complex128{{0, 1}, {1, 0}}
	hMat = [2][2]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	zMat = [2][2]complex128{{1, 0}, {0, -1}}
	sMat = [2][2]complex128{{1, 0}, {0, complex(0, 1)}}
	tMat = [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}
)

func randomUnitary(rng *rand.Rand) [2][2]complex128 {
	// Haar-ish: U3(theta, phi, lambda) with a random global phase.
	th := rng.Float64() * math.Pi
	ph := rng.Float64() * 2 * math.Pi
	la := rng.Float64() * 2 * math.Pi
	al := rng.Float64() * 2 * math.Pi
	c := complex(math.Cos(th/2), 0)
	s := complex(math.Sin(th/2), 0)
	g := cmplx.Exp(complex(0, al))
	return [2][2]complex128{
		{g * c, -g * s * cmplx.Exp(complex(0, la))},
		{g * s * cmplx.Exp(complex(0, ph)), g * c * cmplx.Exp(complex(0, ph+la))},
	}
}

func toDenseControls(cs []Control) []dense.Control {
	out := make([]dense.Control, len(cs))
	for i, c := range cs {
		out[i] = dense.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	return out
}

func statesMatch(t *testing.T, p *Package, e VEdge, want dense.State, tol float64, ctx string) {
	t.Helper()
	got := p.Vector(e)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: amplitude[%d] = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

func matricesMatch(t *testing.T, p *Package, e MEdge, want dense.Matrix, tol float64, ctx string) {
	t.Helper()
	got := p.Matrix(e)
	for r := range want {
		for c := range want[r] {
			if cmplx.Abs(got[r][c]-want[r][c]) > tol {
				t.Fatalf("%s: entry[%d][%d] = %v, want %v", ctx, r, c, got[r][c], want[r][c])
			}
		}
	}
}

func TestBasisStateAmplitudes(t *testing.T) {
	p := NewDefault(4)
	for i := uint64(0); i < 16; i++ {
		e := p.BasisState(i)
		for j := uint64(0); j < 16; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if got := p.Amplitude(e, j); cmplx.Abs(got-want) > 1e-12 {
				t.Fatalf("<%d|%d> = %v", j, i, got)
			}
		}
		if p.VSize(e) != 4 {
			t.Fatalf("basis state %d has %d nodes, want 4", i, p.VSize(e))
		}
	}
}

func TestBasisStateCanonical(t *testing.T) {
	p := NewDefault(5)
	a := p.BasisState(19)
	b := p.BasisState(19)
	if a != b {
		t.Fatal("identical basis states are not pointer-identical")
	}
}

func TestIdentityDD(t *testing.T) {
	p := NewDefault(3)
	id := p.Identity()
	matricesMatch(t, p, id, dense.IdentityMatrix(3), 1e-12, "identity")
	if !p.IsIdentity(id, true) {
		t.Fatal("Identity() not recognized as identity")
	}
	if p.MSize(id) != 3 {
		t.Fatalf("identity has %d nodes", p.MSize(id))
	}
}

func TestGateDDAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 5; n++ {
		p := NewDefault(n)
		for trial := 0; trial < 40; trial++ {
			u := randomUnitary(rng)
			target := rng.Intn(n)
			var controls []Control
			for q := 0; q < n; q++ {
				if q != target && rng.Intn(3) == 0 {
					controls = append(controls, Control{Qubit: q, Neg: rng.Intn(2) == 0})
				}
			}
			e := p.GateDD(u, target, controls)
			want := dense.GateMatrix(n, u, target, toDenseControls(controls))
			matricesMatch(t, p, e, want, 1e-9, "gateDD")
		}
	}
}

func TestGateDDFixedGates(t *testing.T) {
	p := NewDefault(2)
	// CX with control above target and below target.
	cx01 := p.GateDD(xMat, 1, []Control{{Qubit: 0}})
	want01 := dense.GateMatrix(2, xMat, 1, []dense.Control{{Qubit: 0}})
	matricesMatch(t, p, cx01, want01, 1e-12, "CX(0->1)")

	cx10 := p.GateDD(xMat, 0, []Control{{Qubit: 1}})
	want10 := dense.GateMatrix(2, xMat, 0, []dense.Control{{Qubit: 1}})
	matricesMatch(t, p, cx10, want10, 1e-12, "CX(1->0)")
}

func TestGateDDValidation(t *testing.T) {
	p := NewDefault(3)
	cases := []func(){
		func() { p.GateDD(xMat, 3, nil) },
		func() { p.GateDD(xMat, -1, nil) },
		func() { p.GateDD(xMat, 0, []Control{{Qubit: 0}}) },
		func() { p.GateDD(xMat, 0, []Control{{Qubit: 1}, {Qubit: 1}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMulMVAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 5; n++ {
		p := NewDefault(n)
		start := rng.Uint64() & ((1 << uint(n)) - 1)
		state := p.BasisState(start)
		ref := dense.BasisState(n, start)
		for step := 0; step < 30; step++ {
			u := randomUnitary(rng)
			target := rng.Intn(n)
			var controls []Control
			if n > 1 && rng.Intn(2) == 0 {
				q := (target + 1 + rng.Intn(n-1)) % n
				controls = append(controls, Control{Qubit: q, Neg: rng.Intn(2) == 0})
			}
			state = p.MulMV(p.GateDD(u, target, controls), state)
			ref.ApplyGate(u, target, toDenseControls(controls))
		}
		statesMatch(t, p, state, ref, 1e-8, "simulation")
		if math.Abs(p.Norm(state)-1) > 1e-8 {
			t.Fatalf("norm drifted to %g", p.Norm(state))
		}
	}
}

func TestMulMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 4; n++ {
		p := NewDefault(n)
		acc := p.Identity()
		ref := dense.IdentityMatrix(n)
		for step := 0; step < 15; step++ {
			u := randomUnitary(rng)
			target := rng.Intn(n)
			var controls []Control
			if n > 1 && rng.Intn(2) == 0 {
				q := (target + 1 + rng.Intn(n-1)) % n
				controls = append(controls, Control{Qubit: q})
			}
			g := p.GateDD(u, target, controls)
			acc = p.MulMM(g, acc)
			ref = dense.Mul(dense.GateMatrix(n, u, target, toDenseControls(controls)), ref)
		}
		matricesMatch(t, p, acc, ref, 1e-8, "matrix product")
	}
}

func TestAddVAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 3
	p := NewDefault(n)
	// Build two random states, add them, compare.
	build := func() (VEdge, dense.State) {
		idx := rng.Uint64() & 7
		st := p.BasisState(idx)
		ref := dense.BasisState(n, idx)
		for i := 0; i < 10; i++ {
			u := randomUnitary(rng)
			tq := rng.Intn(n)
			st = p.MulMV(p.GateDD(u, tq, nil), st)
			ref.ApplyGate(u, tq, nil)
		}
		return st, ref
	}
	a, ra := build()
	b, rb := build()
	sum := p.AddV(a, b)
	want := make(dense.State, len(ra))
	for i := range ra {
		want[i] = ra[i] + rb[i]
	}
	statesMatch(t, p, sum, want, 1e-8, "AddV")

	// a + a = 2a with the same node.
	twice := p.AddV(a, a)
	if twice.N != a.N {
		t.Error("a+a should reuse a's node")
	}
	// a + (-a) = 0.
	neg := p.scaleV(a, p.CN.LookupReal(-1))
	zero := p.AddV(a, neg)
	if zero.W != p.CN.Zero || zero.N != 0 {
		t.Error("a + (-a) is not the canonical zero edge")
	}
}

func TestAddVCommutesAndAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 3
	p := NewDefault(n)
	mk := func(i uint64) VEdge {
		st := p.BasisState(i)
		for k := 0; k < 5; k++ {
			st = p.MulMV(p.GateDD(randomUnitary(rng), rng.Intn(n), nil), st)
		}
		return st
	}
	a, b, c := mk(0), mk(3), mk(5)
	ab := p.AddV(a, b)
	ba := p.AddV(b, a)
	if ab != ba {
		t.Error("AddV not commutative at the canonical level")
	}
	abc1 := p.AddV(p.AddV(a, b), c)
	abc2 := p.AddV(a, p.AddV(b, c))
	if abc1.N != abc2.N {
		t.Error("AddV associativity broke node canonicity")
	}
	d := cmplx.Abs(abc1.W.Complex() - abc2.W.Complex())
	if d > 1e-9 {
		t.Errorf("AddV associativity weight mismatch %g", d)
	}
}

func TestInnerProductAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 4
	p := NewDefault(n)
	mk := func(i uint64) (VEdge, dense.State) {
		st := p.BasisState(i)
		ref := dense.BasisState(n, i)
		for k := 0; k < 12; k++ {
			u := randomUnitary(rng)
			tq := rng.Intn(n)
			var cs []Control
			if rng.Intn(2) == 0 {
				cs = append(cs, Control{Qubit: (tq + 1) % n})
			}
			st = p.MulMV(p.GateDD(u, tq, cs), st)
			ref.ApplyGate(u, tq, toDenseControls(cs))
		}
		return st, ref
	}
	a, ra := mk(1)
	b, rb := mk(9)
	got := p.InnerProduct(a, b)
	want := dense.InnerProduct(ra, rb)
	if cmplx.Abs(got-want) > 1e-8 {
		t.Fatalf("InnerProduct = %v, want %v", got, want)
	}
	if f := p.Fidelity(a, a); math.Abs(f-1) > 1e-8 {
		t.Errorf("self fidelity = %g", f)
	}
}

func TestConjugateTransposeAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 3
	p := NewDefault(n)
	acc := p.Identity()
	ref := dense.IdentityMatrix(n)
	for step := 0; step < 10; step++ {
		u := randomUnitary(rng)
		tq := rng.Intn(n)
		acc = p.MulMM(p.GateDD(u, tq, nil), acc)
		ref = dense.Mul(dense.GateMatrix(n, u, tq, nil), ref)
	}
	ct := p.ConjugateTranspose(acc)
	matricesMatch(t, p, ct, dense.Dagger(ref), 1e-8, "adjoint")
	// U * U† = I.
	prod := p.MulMM(acc, ct)
	if !p.IsIdentity(prod, false) {
		t.Error("U · U† is not the identity DD")
	}
}

func TestCircuitVsInverseIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 4
	p := NewDefault(n)
	type step struct {
		u      [2][2]complex128
		target int
		cs     []Control
	}
	var steps []step
	for i := 0; i < 20; i++ {
		st := step{u: randomUnitary(rng), target: rng.Intn(n)}
		if rng.Intn(2) == 0 {
			st.cs = []Control{{Qubit: (st.target + 1) % n}}
		}
		steps = append(steps, st)
	}
	acc := p.Identity()
	for _, s := range steps {
		acc = p.MulMM(p.GateDD(s.u, s.target, s.cs), acc)
	}
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		inv := [2][2]complex128{
			{cmplx.Conj(s.u[0][0]), cmplx.Conj(s.u[1][0])},
			{cmplx.Conj(s.u[0][1]), cmplx.Conj(s.u[1][1])},
		}
		acc = p.MulMM(p.GateDD(inv, s.target, s.cs), acc)
	}
	if !p.IsIdentity(acc, false) {
		t.Fatal("G† G is not the identity")
	}
	if !p.IsIdentity(acc, true) {
		t.Fatal("G† G identity has residual global phase (strict check failed)")
	}
}

func TestCanonicityAcrossConstructionOrders(t *testing.T) {
	p := NewDefault(3)
	// Build H(0)·H(1) state two ways: apply H0 then H1, or H1 then H0.
	h0 := p.GateDD(hMat, 0, nil)
	h1 := p.GateDD(hMat, 1, nil)
	s1 := p.MulMV(h1, p.MulMV(h0, p.ZeroState()))
	s2 := p.MulMV(h0, p.MulMV(h1, p.ZeroState()))
	if s1 != s2 {
		t.Fatal("commuting gate orders produced different canonical DDs")
	}
}

func TestSampleDistribution(t *testing.T) {
	p := NewDefault(2)
	// Bell state: samples must be 00 or 11, roughly balanced.
	st := p.MulMV(p.GateDD(hMat, 0, nil), p.ZeroState())
	st = p.MulMV(p.GateDD(xMat, 1, []Control{{Qubit: 0}}), st)
	rng := rand.New(rand.NewSource(41))
	counts := map[uint64]int{}
	for i := 0; i < 2000; i++ {
		counts[p.Sample(st, rng)]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("Bell sampling produced impossible outcomes: %v", counts)
	}
	if counts[0] < 800 || counts[3] < 800 {
		t.Fatalf("Bell sampling unbalanced: %v", counts)
	}
}

func TestGCPreservesLiveResults(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 4
	p := NewDefault(n)
	p.SetGCThreshold(1)
	state := p.ZeroState()
	ref := dense.NewState(n)
	for step := 0; step < 40; step++ {
		u := randomUnitary(rng)
		tq := rng.Intn(n)
		state = p.MulMV(p.GateDD(u, tq, nil), state)
		ref.ApplyGate(u, tq, nil)
		// A floor of 1 collects at every safe point.
		if !p.MaybeGC([]VEdge{state}, nil) {
			t.Fatalf("no collection at step %d despite floor 1", step)
		}
		// After collection the state must still be intact and canonical:
		// re-deriving a value through fresh operations must agree.
		if math.Abs(p.Norm(state)-1) > 1e-8 {
			t.Fatalf("norm broken after GC at step %d", step)
		}
	}
	statesMatch(t, p, state, ref, 1e-8, "post-GC simulation")
}

func TestGCRemovesDeadNodes(t *testing.T) {
	p := NewDefault(6)
	var keep VEdge
	for i := uint64(0); i < 40; i++ {
		e := p.BasisState(i)
		if i == 0 {
			keep = e
		}
	}
	before := p.NodeCount()
	removed := p.GC([]VEdge{keep}, nil)
	if removed == 0 {
		t.Fatal("GC removed nothing")
	}
	if p.NodeCount() >= before {
		t.Fatal("node count did not drop")
	}
	// keep must survive.
	if got := p.Amplitude(keep, 0); cmplx.Abs(got-1) > 1e-12 {
		t.Fatal("live root damaged by GC")
	}
}

func TestIsIdentityGlobalPhase(t *testing.T) {
	p := NewDefault(2)
	id := p.Identity()
	phased := p.scaleM(id, p.CN.Lookup(cmplx.Exp(complex(0, 0.3))))
	if p.IsIdentity(phased, true) {
		t.Error("strict identity check accepted a phased identity")
	}
	if !p.IsIdentity(phased, false) {
		t.Error("phase-insensitive identity check rejected a phased identity")
	}
	notID := p.GateDD(xMat, 0, nil)
	if p.IsIdentity(notID, false) {
		t.Error("X accepted as identity")
	}
}

func TestMatrixEntryAndVectorLimits(t *testing.T) {
	p := NewDefault(2)
	cx := p.GateDD(xMat, 1, []Control{{Qubit: 0}})
	if e := p.MatrixEntry(cx, 3, 1); cmplx.Abs(e-1) > 1e-12 {
		t.Errorf("CX[3][1] = %v, want 1", e)
	}
	if e := p.MatrixEntry(cx, 3, 3); e != 0 {
		t.Errorf("CX[3][3] = %v, want 0", e)
	}
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -3, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n, cn.DefaultTolerance)
		}()
	}
}

func TestBasisStateOutOfRangePanics(t *testing.T) {
	p := NewDefault(3)
	defer func() {
		if recover() == nil {
			t.Error("BasisState(8) on 3 qubits did not panic")
		}
	}()
	p.BasisState(8)
}

func TestLargeRegisterBasisAndGate(t *testing.T) {
	// 64 qubits: DD operations must stay tiny for product states.
	p := NewDefault(64)
	st := p.BasisState(0xDEADBEEF)
	if p.VSize(st) != 64 {
		t.Fatalf("64-qubit basis state has %d nodes", p.VSize(st))
	}
	g := p.GateDD(hMat, 63, nil)
	st = p.MulMV(g, st)
	if math.Abs(p.Norm(st)-1) > 1e-9 {
		t.Fatalf("norm = %g", p.Norm(st))
	}
	if p.VSize(st) != 64 {
		t.Fatalf("product state blew up to %d nodes", p.VSize(st))
	}
}

// Property: for random basis states and random single-qubit gates, the DD
// amplitude matches the dense amplitude.
func TestQuickAmplitudeAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		p := NewDefault(n)
		idx := rng.Uint64() & ((1 << uint(n)) - 1)
		st := p.BasisState(idx)
		ref := dense.BasisState(n, idx)
		for i := 0; i < 8; i++ {
			u := randomUnitary(rng)
			tq := rng.Intn(n)
			st = p.MulMV(p.GateDD(u, tq, nil), st)
			ref.ApplyGate(u, tq, nil)
		}
		probe := rng.Uint64() & ((1 << uint(n)) - 1)
		return cmplx.Abs(p.Amplitude(st, probe)-ref[probe]) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MulMM is associative at the canonical-pointer level for
// Clifford+T gates.  (For arbitrary unitaries, near-ties in the magnitude
// normalization may pick different representatives on different evaluation
// orders; the results then still agree numerically, which the next property
// checks.)
func TestQuickMulMMAssociativeClifford(t *testing.T) {
	mats := [][2][2]complex128{xMat, hMat, zMat, sMat, tMat}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		p := NewDefault(n)
		mk := func() MEdge {
			tq := rng.Intn(n)
			var cs []Control
			if rng.Intn(2) == 0 {
				cs = []Control{{Qubit: (tq + 1) % n}}
			}
			return p.GateDD(mats[rng.Intn(len(mats))], tq, cs)
		}
		a, b, c := mk(), mk(), mk()
		l := p.MulMM(p.MulMM(a, b), c)
		r := p.MulMM(a, p.MulMM(b, c))
		if l.N != r.N {
			return false
		}
		return cmplx.Abs(l.W.Complex()-r.W.Complex()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MulMM is associative numerically for arbitrary unitaries.
func TestQuickMulMMAssociativeNumeric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		p := NewDefault(n)
		a := p.GateDD(randomUnitary(rng), rng.Intn(n), nil)
		b := p.GateDD(randomUnitary(rng), rng.Intn(n), nil)
		c := p.GateDD(randomUnitary(rng), rng.Intn(n), nil)
		l := p.MulMM(p.MulMM(a, b), c)
		r := p.MulMM(a, p.MulMM(b, c))
		for probe := 0; probe < 8; probe++ {
			ri := rng.Uint64() & 7
			ci := rng.Uint64() & 7
			if cmplx.Abs(p.MatrixEntry(l, ri, ci)-p.MatrixEntry(r, ri, ci)) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFormatState(t *testing.T) {
	p := NewDefault(2)
	st := p.MulMV(p.GateDD(hMat, 0, nil), p.ZeroState())
	s := p.FormatState(st, 4)
	if s == "" || s == "0" {
		t.Errorf("FormatState = %q", s)
	}
	if z := p.FormatState(p.VZero(), 4); z != "0" {
		t.Errorf("FormatState(zero) = %q", z)
	}
}

func TestNodeLimitAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := NewDefault(10)
	p.SetNodeLimit(200)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("node limit never tripped")
		}
		le, ok := r.(*LimitError)
		if !ok {
			t.Fatalf("panic value %v is not a *LimitError", r)
		}
		if le.Nodes <= le.Limit || le.Error() == "" {
			t.Fatalf("malformed LimitError: %+v", le)
		}
	}()
	acc := p.Identity()
	for i := 0; i < 100; i++ {
		acc = p.MulMM(p.GateDD(randomUnitary(rng), rng.Intn(10), []Control{{Qubit: (rng.Intn(9) + 1)}}), acc)
	}
}

func TestNodeLimitDisabled(t *testing.T) {
	p := NewDefault(4)
	p.SetNodeLimit(5)
	p.SetNodeLimit(0) // removing the limit must stop the panics
	for i := uint64(0); i < 16; i++ {
		p.BasisState(i)
	}
}

func TestSnapshotStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewDefault(5)
	st := p.ZeroState()
	for i := 0; i < 20; i++ {
		st = p.MulMV(p.GateDD(randomUnitary(rng), rng.Intn(5), nil), st)
	}
	s := p.Snapshot()
	if s.VectorNodes == 0 || s.MatrixNodes == 0 || s.NodesCreated == 0 {
		t.Errorf("empty node stats: %+v", s)
	}
	if s.WeightsStored < 3 {
		t.Errorf("weights stored = %d", s.WeightsStored)
	}
	if s.CacheMisses == 0 {
		t.Errorf("no cache misses recorded: %+v", s)
	}
}

// Property: canonicity invariants hold after arbitrary operation sequences.
func TestQuickInvariantsPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		p := NewDefault(n)
		st := p.BasisState(rng.Uint64() & ((1 << uint(n)) - 1))
		acc := p.Identity()
		for i := 0; i < 15; i++ {
			u := randomUnitary(rng)
			tq := rng.Intn(n)
			var cs []Control
			if rng.Intn(2) == 0 && n > 1 {
				cs = []Control{{Qubit: (tq + 1) % n, Neg: rng.Intn(2) == 0}}
			}
			g := p.GateDD(u, tq, cs)
			if p.ValidateM(g) != nil {
				return false
			}
			st = p.MulMV(g, st)
			acc = p.MulMM(g, acc)
		}
		if err := p.ValidateV(st); err != nil {
			t.Logf("vector invariant: %v", err)
			return false
		}
		if err := p.ValidateM(acc); err != nil {
			t.Logf("matrix invariant: %v", err)
			return false
		}
		// Sums of two states must also validate.
		st2 := p.MulMV(p.GateDD(randomUnitary(rng), rng.Intn(n), nil), st)
		if err := p.ValidateV(p.AddV(st, st2)); err != nil {
			t.Logf("sum invariant: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := NewDefault(3)
	st := p.BasisState(5)
	if err := p.ValidateV(st); err != nil {
		t.Fatalf("fresh basis state invalid: %v", err)
	}
	// A zero edge pointing at a node is invalid.
	bad := VEdge{W: p.CN.Zero, N: st.N}
	if err := p.ValidateV(bad); err == nil {
		t.Error("zero edge with node accepted")
	}
	// Identity matrix validates.
	if err := p.ValidateM(p.Identity()); err != nil {
		t.Errorf("identity invalid: %v", err)
	}
}

// Sampling distribution chi-square check against exact probabilities.
func TestSampleChiSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 3
	p := NewDefault(n)
	st := p.BasisState(0)
	for i := 0; i < 12; i++ {
		st = p.MulMV(p.GateDD(randomUnitary(rng), rng.Intn(n), nil), st)
	}
	probs := make([]float64, 8)
	vec := p.Vector(st)
	for i, a := range vec {
		probs[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	const shots = 20000
	counts := make([]int, 8)
	for i := 0; i < shots; i++ {
		counts[p.Sample(st, rng)]++
	}
	chi2 := 0.0
	for i := range probs {
		expect := probs[i] * shots
		if expect < 1 {
			continue
		}
		d := float64(counts[i]) - expect
		chi2 += d * d / expect
	}
	// 7 degrees of freedom; 0.999 quantile ≈ 24.3.
	if chi2 > 24.3 {
		t.Errorf("chi-square = %g, sampling distribution off (counts %v, probs %v)", chi2, counts, probs)
	}
}
