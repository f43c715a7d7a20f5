package cn

import (
	"math"
	"math/rand"
	"testing"
)

// benchValues returns k pseudo-random values in the unit disk, the range DD
// edge weights live in.
func benchValues(k int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	vs := make([]complex128, k)
	for i := range vs {
		r, th := math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		vs[i] = complex(r*math.Cos(th), r*math.Sin(th))
	}
	return vs
}

// BenchmarkLookupHit interns 1<<16 values, then looks them up again with
// a perturbation below the tolerance: the path of every weight a DD
// operation recomputes.
func BenchmarkLookupHit(b *testing.B) {
	tab := NewDefault()
	vs := benchValues(1 << 16)
	for _, v := range vs {
		tab.Lookup(v)
	}
	eps := complex(tab.Tolerance()/3, -tab.Tolerance()/3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(vs[i&(len(vs)-1)] + eps)
	}
}

// BenchmarkLookupInsert interns fresh values into one growing table: the
// full 3×3 miss scan plus the insertion, growth amortized in.
func BenchmarkLookupInsert(b *testing.B) {
	vs := benchValues(1 << 16)
	tab := NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(len(vs)-1) == 0 && i > 0 {
			b.StopTimer()
			tab = NewDefault()
			b.StartTimer()
		}
		tab.Lookup(vs[i&(len(vs)-1)])
	}
}
