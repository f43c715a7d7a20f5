package cn

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroOneCanonical(t *testing.T) {
	tab := NewDefault()
	if tab.Lookup(0) != tab.Zero {
		t.Fatal("Lookup(0) did not return canonical Zero")
	}
	if tab.Lookup(1) != tab.One {
		t.Fatal("Lookup(1) did not return canonical One")
	}
	if tab.Zero.Complex() != 0 {
		t.Fatalf("Zero holds %v", tab.Zero.Complex())
	}
	if tab.One.Complex() != 1 {
		t.Fatalf("One holds %v", tab.One.Complex())
	}
}

func TestSnapToZeroAndOne(t *testing.T) {
	tab := NewDefault()
	eps := tab.Tolerance() / 2
	if tab.Lookup(complex(eps, -eps)) != tab.Zero {
		t.Error("value within tolerance of 0 did not snap to Zero")
	}
	if tab.Lookup(complex(1-eps, eps)) != tab.One {
		t.Error("value within tolerance of 1 did not snap to One")
	}
}

func TestInterningWithinTolerance(t *testing.T) {
	tab := NewDefault()
	base := complex(0.70710678118, -0.5)
	a := tab.Lookup(base)
	b := tab.Lookup(base + complex(tab.Tolerance()/3, 0))
	c := tab.Lookup(base + complex(0, -tab.Tolerance()/3))
	if a != b || a != c {
		t.Error("values within tolerance interned to distinct pointers")
	}
	d := tab.Lookup(base + complex(10*tab.Tolerance(), 0))
	if a == d {
		t.Error("clearly distinct values interned to the same pointer")
	}
}

func TestBucketBoundary(t *testing.T) {
	// Two values straddling a quantization bucket boundary but within
	// tolerance of each other must still intern to one entry.
	tab := NewTable(1e-9)
	w := tab.Tolerance()
	x := 5 * w // exactly on a bucket boundary
	a := tab.Lookup(complex(x-w/4, 0))
	b := tab.Lookup(complex(x+w/4, 0))
	if a != b {
		t.Error("boundary-straddling values were not merged")
	}
}

func TestArithmeticHelpers(t *testing.T) {
	tab := NewDefault()
	a := tab.Lookup(complex(0.5, 0.25))
	b := tab.Lookup(complex(-0.125, 2))

	if got := tab.Mul(a, b).Complex(); cmplx.Abs(got-a.Complex()*b.Complex()) > 1e-9 {
		t.Errorf("Mul = %v", got)
	}
	if got := tab.Add(a, b).Complex(); cmplx.Abs(got-(a.Complex()+b.Complex())) > 1e-9 {
		t.Errorf("Add = %v", got)
	}
	if got := tab.Div(a, b).Complex(); cmplx.Abs(got-a.Complex()/b.Complex()) > 1e-9 {
		t.Errorf("Div = %v", got)
	}
	if got := tab.Neg(a).Complex(); got != -a.Complex() {
		t.Errorf("Neg = %v", got)
	}
	if got := tab.Conj(a).Complex(); got != cmplx.Conj(a.Complex()) {
		t.Errorf("Conj = %v", got)
	}

	// Identity shortcuts.
	if tab.Mul(tab.One, b) != b || tab.Mul(b, tab.One) != b {
		t.Error("Mul by One must return the operand pointer")
	}
	if tab.Mul(tab.Zero, b) != tab.Zero {
		t.Error("Mul by Zero must return Zero")
	}
	if tab.Add(tab.Zero, b) != b {
		t.Error("Add of Zero must return the operand pointer")
	}
	if tab.Conj(tab.LookupReal(0.75)) != tab.LookupReal(0.75) {
		t.Error("Conj of a real value must return the same pointer")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	tab := NewDefault()
	defer func() {
		if recover() == nil {
			t.Error("Div by Zero did not panic")
		}
	}()
	tab.Div(tab.One, tab.Zero)
}

func TestInvalidTolerancePanics(t *testing.T) {
	for _, tol := range []float64{0, -1e-9, 0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%g) did not panic", tol)
				}
			}()
			NewTable(tol)
		}()
	}
}

func TestStats(t *testing.T) {
	tab := NewDefault()
	tab.Lookup(complex(0.3, 0.4))
	tab.Lookup(complex(0.3, 0.4))
	lookups, hits := tab.Stats()
	if lookups != 2 || hits != 1 {
		t.Errorf("lookups=%d hits=%d, want 2 and 1", lookups, hits)
	}
}

func TestIDsAreUnique(t *testing.T) {
	tab := NewDefault()
	seen := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := tab.Lookup(complex(rng.Float64()*2-1, rng.Float64()*2-1))
		if v.ID() >= uint64(tab.Size()) {
			t.Fatalf("ID %d out of range (size %d)", v.ID(), tab.Size())
		}
		seen[v.ID()] = true
	}
	if len(seen) < 2 {
		t.Fatal("interning collapsed everything; suspicious")
	}
}

// Property: Lookup is idempotent — looking up the numeric value of an
// interned entry returns the same pointer.
func TestQuickLookupIdempotent(t *testing.T) {
	tab := NewDefault()
	f := func(re, im float64) bool {
		re = math.Mod(re, 4)
		im = math.Mod(im, 4)
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		v := tab.Lookup(complex(re, im))
		return tab.Lookup(v.Complex()) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: interned value is within tolerance of the requested value.
func TestQuickLookupWithinTolerance(t *testing.T) {
	tab := NewDefault()
	f := func(re, im float64) bool {
		re = math.Mod(re, 4)
		im = math.Mod(im, 4)
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		c := complex(re, im)
		v := tab.Lookup(c)
		return math.Abs(real(v.Complex())-re) <= tab.Tolerance() &&
			math.Abs(imag(v.Complex())-im) <= tab.Tolerance()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAbsHelpers(t *testing.T) {
	tab := NewDefault()
	v := tab.Lookup(complex(3, 4))
	if v.Abs() != 5 {
		t.Errorf("Abs = %g", v.Abs())
	}
	if v.Abs2() != 25 {
		t.Errorf("Abs2 = %g", v.Abs2())
	}
	if v.Real() != 3 || v.Imag() != 4 {
		t.Errorf("Real/Imag = %g/%g", v.Real(), v.Imag())
	}
}

func TestStringFormat(t *testing.T) {
	tab := NewDefault()
	if s := tab.Lookup(complex(1, -1)).String(); s != "1-1i" {
		t.Errorf("String = %q", s)
	}
	var nilV *Value
	if s := nilV.String(); s != "<nil>" {
		t.Errorf("nil String = %q", s)
	}
}

func TestNonFiniteLookupPanics(t *testing.T) {
	tab := NewDefault()
	for _, c := range []complex128{
		complex(math.NaN(), 0),
		complex(0, math.NaN()),
		complex(math.Inf(1), 0),
		complex(0, math.Inf(-1)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lookup(%v) did not panic", c)
				}
			}()
			tab.Lookup(c)
		}()
	}
}

// TestByIDRoundTrip: every interned value, including the pre-interned Zero
// and One and values interned after the table grew, is found again by its
// ID.
func TestByIDRoundTrip(t *testing.T) {
	tab := NewDefault()
	vals := []*Value{tab.Zero, tab.One}
	for i := 0; i < 3*tableInitCap; i++ {
		vals = append(vals, tab.LookupReal(0.5+float64(i)))
	}
	for _, v := range vals {
		if got := tab.ByID(uint32(v.ID())); got != v {
			t.Fatalf("ByID(%d) = %v, want %v", v.ID(), got, v)
		}
	}
}
