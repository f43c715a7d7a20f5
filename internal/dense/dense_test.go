package dense

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	xMat = [2][2]complex128{{0, 1}, {1, 0}}
	hMat = [2][2]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	zMat = [2][2]complex128{{1, 0}, {0, -1}}
)

func TestBasisState(t *testing.T) {
	s := BasisState(3, 5)
	for i, a := range s {
		want := complex128(0)
		if i == 5 {
			want = 1
		}
		if a != want {
			t.Fatalf("amplitude[%d] = %v", i, a)
		}
	}
	if s.Qubits() != 3 {
		t.Fatalf("Qubits = %d", s.Qubits())
	}
}

func TestApplyX(t *testing.T) {
	s := NewState(2)
	s.ApplyGate(xMat, 0, nil)
	if s[1] != 1 || s[0] != 0 {
		t.Fatalf("X|00> = %v", s)
	}
	s.ApplyGate(xMat, 1, nil)
	if s[3] != 1 {
		t.Fatalf("X1 X0 |00> = %v", s)
	}
}

func TestApplyCX(t *testing.T) {
	// CX(control 0, target 1): |01> -> |11>
	s := BasisState(2, 1)
	s.ApplyGate(xMat, 1, []Control{{Qubit: 0}})
	if s[3] != 1 {
		t.Fatalf("CX|01> = %v", s)
	}
	// |00> must be untouched.
	s = BasisState(2, 0)
	s.ApplyGate(xMat, 1, []Control{{Qubit: 0}})
	if s[0] != 1 {
		t.Fatalf("CX|00> = %v", s)
	}
}

func TestNegativeControl(t *testing.T) {
	// X on target 1 with negative control on 0 fires for |00>.
	s := BasisState(2, 0)
	s.ApplyGate(xMat, 1, []Control{{Qubit: 0, Neg: true}})
	if s[2] != 1 {
		t.Fatalf("negCX|00> = %v", s)
	}
	s = BasisState(2, 1)
	s.ApplyGate(xMat, 1, []Control{{Qubit: 0, Neg: true}})
	if s[1] != 1 {
		t.Fatalf("negCX|01> = %v", s)
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.ApplyGate(hMat, 0, nil)
	s.ApplyGate(xMat, 1, []Control{{Qubit: 0}})
	want := complex(1/math.Sqrt2, 0)
	if cmplx.Abs(s[0]-want) > 1e-12 || cmplx.Abs(s[3]-want) > 1e-12 {
		t.Fatalf("Bell state = %v", s)
	}
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Fatalf("norm = %g", s.Norm())
	}
}

func TestInnerProductAndFidelity(t *testing.T) {
	a := BasisState(2, 0)
	b := BasisState(2, 3)
	if InnerProduct(a, b) != 0 {
		t.Error("orthogonal states have nonzero inner product")
	}
	if Fidelity(a, a) != 1 {
		t.Error("self fidelity != 1")
	}
	bell := NewState(2)
	bell.ApplyGate(hMat, 0, nil)
	bell.ApplyGate(xMat, 1, []Control{{Qubit: 0}})
	if f := Fidelity(bell, a); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("fidelity(bell,|00>) = %g, want 0.5", f)
	}
}

func TestGateMatrixCX(t *testing.T) {
	m := GateMatrix(2, xMat, 1, []Control{{Qubit: 0}})
	// CX(control q0, target q1) in little-endian ordering:
	want := Matrix{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	}
	if !MatApproxEqual(m, want, 1e-12) {
		t.Fatalf("CX matrix =\n%v", m)
	}
}

func TestMulAndDagger(t *testing.T) {
	hFull := GateMatrix(1, hMat, 0, nil)
	prod := Mul(hFull, hFull)
	if !MatApproxEqual(prod, IdentityMatrix(1), 1e-12) {
		t.Fatal("H*H != I")
	}
	if !MatApproxEqual(Dagger(hFull), hFull, 1e-12) {
		t.Fatal("H dagger != H")
	}
	if !IsUnitary(hFull, 1e-12) {
		t.Fatal("H not unitary")
	}
}

func TestMulVec(t *testing.T) {
	m := GateMatrix(2, xMat, 0, nil)
	v := BasisState(2, 0)
	got := MulVec(m, v)
	if got[1] != 1 {
		t.Fatalf("X0|00> = %v", got)
	}
}

func TestEqualUpToGlobalPhase(t *testing.T) {
	a := NewState(2)
	a.ApplyGate(hMat, 0, nil)
	b := a.Clone()
	phase := cmplx.Exp(complex(0, 1.234))
	for i := range b {
		b[i] *= phase
	}
	if !EqualUpToGlobalPhase(a, b, 1e-9) {
		t.Error("phase-shifted state not recognized as equal up to phase")
	}
	if ApproxEqual(a, b, 1e-9) {
		t.Error("phase-shifted state wrongly strictly equal")
	}
	c := a.Clone()
	c.ApplyGate(zMat, 1, nil)
	c.ApplyGate(xMat, 1, nil) // now genuinely different
	if EqualUpToGlobalPhase(a, c, 1e-9) {
		t.Error("different states wrongly equal up to phase")
	}
}

func TestMatEqualUpToGlobalPhase(t *testing.T) {
	h := GateMatrix(1, hMat, 0, nil)
	ph := NewMatrix(2)
	phase := cmplx.Exp(complex(0, -0.7))
	for i := range h {
		for j := range h[i] {
			ph[i][j] = phase * h[i][j]
		}
	}
	if !MatEqualUpToGlobalPhase(h, ph, 1e-9) {
		t.Error("phase-shifted matrix not equal up to phase")
	}
	x := GateMatrix(1, xMat, 0, nil)
	if MatEqualUpToGlobalPhase(h, x, 1e-9) {
		t.Error("H and X wrongly equal up to phase")
	}
}

// Property: applying a random sequence of H/X/CX preserves the norm.
func TestQuickNormPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		s := NewState(n)
		for i := 0; i < 20; i++ {
			q := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.ApplyGate(hMat, q, nil)
			case 1:
				s.ApplyGate(xMat, q, nil)
			case 2:
				c := (q + 1 + rng.Intn(n-1)) % n
				s.ApplyGate(xMat, q, []Control{{Qubit: c}})
			}
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: gate matrices of controlled ops are unitary.
func TestQuickGateMatrixUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := rng.Float64() * 2 * math.Pi
		u := [2][2]complex128{
			{complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))},
			{complex(0, -math.Sin(theta/2)), complex(math.Cos(theta/2), 0)},
		}
		n := 3
		target := rng.Intn(n)
		ctl := (target + 1 + rng.Intn(n-1)) % n
		m := GateMatrix(n, u, target, []Control{{Qubit: ctl, Neg: rng.Intn(2) == 0}})
		return IsUnitary(m, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
