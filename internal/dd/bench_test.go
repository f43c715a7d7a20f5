package dd

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the DD substrate: the matrix-vector path is the
// paper's "cheap" operation, the matrix-matrix path its "expensive" one.

func BenchmarkGateDD(b *testing.B) {
	p := NewDefault(16)
	controls := []Control{{Qubit: 3}, {Qubit: 7, Neg: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GateDD(hMat, 10, controls)
	}
}

func BenchmarkBasisState(b *testing.B) {
	p := NewDefault(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BasisState(uint64(i) & 0xFFFFFFFF)
	}
}

func BenchmarkMulMVEntangled(b *testing.B) {
	// Evolve an entangled 12-qubit state by H and CX layers.
	rng := rand.New(rand.NewSource(1))
	p := NewDefault(12)
	state := p.ZeroState()
	gates := make([]MEdge, 0, 64)
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			gates = append(gates, p.GateDD(hMat, rng.Intn(12), nil))
		} else {
			t := rng.Intn(12)
			c := (t + 1 + rng.Intn(11)) % 12
			gates = append(gates, p.GateDD(xMat, t, []Control{{Qubit: c}}))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = p.MulMV(gates[i%len(gates)], state)
		p.MaybeGC([]VEdge{state}, nil)
	}
}

func BenchmarkMulMMRandomClifford(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := NewDefault(8)
	acc := p.Identity()
	gates := make([]MEdge, 0, 32)
	for i := 0; i < 32; i++ {
		t := rng.Intn(8)
		c := (t + 1 + rng.Intn(7)) % 8
		gates = append(gates, p.GateDD(xMat, t, []Control{{Qubit: c}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = p.MulMM(gates[i%len(gates)], acc)
		p.MaybeGC(nil, []MEdge{acc})
	}
}

func BenchmarkInnerProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := NewDefault(12)
	mk := func(seed uint64) VEdge {
		st := p.BasisState(seed)
		for i := 0; i < 24; i++ {
			st = p.MulMV(p.GateDD(randomUnitary(rng), rng.Intn(12), nil), st)
		}
		return st
	}
	a, c := mk(5), mk(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InnerProduct(a, c)
	}
}

// The next four benchmarks pin the gate registry's hot paths.  NewPackage matters
// because every checker run (and every parallel worker) creates its own
// Package: with the lazily allocated compute tables this costs microseconds,
// not the tens of milliseconds the old eagerly zeroed 2^17-entry tables took.

func BenchmarkNewPackage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewDefault(8)
	}
}

func BenchmarkGateDDUncached8(b *testing.B) {
	p := NewDefault(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.buildGateDD(hMat, i%8, []Control{{Qubit: (i + 1) % 8}})
	}
}

func BenchmarkGateDDCached8(b *testing.B) {
	p := NewDefault(8)
	for i := 0; i < 8; i++ {
		p.GateDD(hMat, i%8, []Control{{Qubit: (i + 1) % 8}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GateDD(hMat, i%8, []Control{{Qubit: (i + 1) % 8}})
	}
}

func BenchmarkMulMVBasis8(b *testing.B) {
	p := NewDefault(8)
	g := p.GateDD(hMat, 3, []Control{{Qubit: 1}})
	v := p.BasisState(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.MulMV(g, v)
	}
}

func BenchmarkGC(b *testing.B) {
	p := NewDefault(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var keep VEdge
		for j := uint64(0); j < 256; j++ {
			keep = p.BasisState((j * 1023) & 0x3FFF)
		}
		b.StartTimer()
		p.GC([]VEdge{keep}, nil)
	}
}

// BenchmarkMulMMMiter is the hash-consing-heavy workload of the complete
// check: a 10-qubit product of random H, T and CX gates (T spreads the
// weights over many distinct interned values) drawn at random, restarted
// from the identity every 48 gates, so nearly every step builds fresh
// matrix nodes through makeMNode and interns fresh weights.  One op is one
// gate multiplication.
func BenchmarkMulMMMiter(b *testing.B) {
	const n, span = 10, 48
	rng := rand.New(rand.NewSource(4))
	p := NewDefault(n)
	gates := make([]MEdge, 0, 256)
	for i := 0; i < cap(gates); i++ {
		t := rng.Intn(n)
		switch i % 3 {
		case 0:
			gates = append(gates, p.GateDD(hMat, t, nil))
		case 1:
			gates = append(gates, p.GateDD(tMat, t, nil))
		default:
			c := (t + 1 + rng.Intn(n-1)) % n
			gates = append(gates, p.GateDD(xMat, t, []Control{{Qubit: c}}))
		}
	}
	acc := p.Identity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%span == 0 {
			acc = p.Identity()
		}
		acc = p.MulMM(gates[rng.Intn(len(gates))], acc)
		p.MaybeGC(nil, []MEdge{acc})
	}
}

// BenchmarkResetAfterProduct measures Package.Reset after a
// BenchmarkMulMMMiter-sized job: the collection that hands a pooled package
// back empty except for its identity chain and gate registry.
func BenchmarkResetAfterProduct(b *testing.B) {
	const n = 10
	rng := rand.New(rand.NewSource(5))
	p := NewDefault(n)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		acc := p.Identity()
		for j := 0; j < 48; j++ {
			t := rng.Intn(n)
			acc = p.MulMM(p.GateDD(hMat, t, nil), acc)
			acc = p.MulMM(p.GateDD(tMat, (t+1)%n, nil), acc)
		}
		b.StartTimer()
		p.Reset()
	}
}
