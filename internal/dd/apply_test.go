package dd

import (
	"math/rand"
	"testing"
)

// randomControls draws up to two distinct controls avoiding the target,
// each negative with probability 1/2.
func randomControls(rng *rand.Rand, n, target int) []Control {
	k := rng.Intn(3)
	if k == 0 || n < 2 {
		return nil
	}
	perm := rng.Perm(n)
	var out []Control
	for _, q := range perm {
		if q == target {
			continue
		}
		out = append(out, Control{Qubit: q, Neg: rng.Intn(2) == 1})
		if len(out) == k {
			break
		}
	}
	return out
}

// randomKernelState builds a non-trivial state by applying a few random
// gates through the legacy matrix path.
func randomKernelState(p *Package, rng *rand.Rand) VEdge {
	n := p.Qubits()
	st := p.BasisState(rng.Uint64() & (uint64(1)<<uint(n) - 1))
	for i := 0; i < 2*n; i++ {
		tgt := rng.Intn(n)
		m := p.GateDD(randomUnitary(rng), tgt, randomControls(rng, n, tgt))
		st = p.MulMV(m, st)
	}
	return st
}

// TestApplyGateVMatchesMulMV checks the kernel against the legacy
// GateDD+MulMV path on the same package: both must produce the identical
// canonical edge (same node pointer, same interned weight pointer).
func TestApplyGateVMatchesMulMV(t *testing.T) {
	gates := map[string][2][2]complex128{
		"X": xMat, "H": hMat, "Z": zMat, "S": sMat, "T": tMat,
	}
	for _, n := range []int{1, 2, 3, 5, 7} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		p := NewDefault(n)
		for trial := 0; trial < 60; trial++ {
			st := randomKernelState(p, rng)
			u := randomUnitary(rng)
			name := "U3"
			for nm, m := range gates {
				if rng.Intn(6) == 0 {
					u, name = m, nm
					break
				}
			}
			tgt := rng.Intn(n)
			ctl := randomControls(rng, n, tgt)
			want := p.MulMV(p.GateDD(u, tgt, ctl), st)
			got := p.ApplyGateV(u, tgt, ctl, st)
			if got != want {
				t.Fatalf("n=%d trial=%d gate=%s target=%d controls=%v: kernel edge %v, legacy %v",
					n, trial, name, tgt, ctl, got, want)
			}
			if err := p.ValidateV(got); err != nil {
				t.Fatalf("n=%d trial=%d: kernel result not canonical: %v", n, trial, err)
			}
		}
	}
}

// TestApplyGateVFixedShapes pins down the structured cases the kernel
// special-cases: diagonal, antidiagonal and dense matrices with controls
// above, below and on both sides of the target.
func TestApplyGateVFixedShapes(t *testing.T) {
	const n = 4
	cases := []struct {
		name string
		u    [2][2]complex128
		tgt  int
		ctl  []Control
	}{
		{"X", xMat, 1, nil},
		{"H", hMat, 0, nil},
		{"Z-top", zMat, 3, nil},
		{"CX-up", xMat, 0, []Control{{Qubit: 2}}},
		{"CX-down", xMat, 3, []Control{{Qubit: 1}}},
		{"CZ-down", zMat, 2, []Control{{Qubit: 0}}},
		{"CH-down", hMat, 3, []Control{{Qubit: 0}}},
		{"neg-CX", xMat, 1, []Control{{Qubit: 3, Neg: true}}},
		{"ccx-mixed", xMat, 1, []Control{{Qubit: 0}, {Qubit: 3, Neg: true}}},
		{"ccz-low", zMat, 3, []Control{{Qubit: 0}, {Qubit: 1, Neg: true}}},
		{"cch-straddle", hMat, 2, []Control{{Qubit: 1}, {Qubit: 3}}},
		{"cs-low", sMat, 2, []Control{{Qubit: 1}}},
	}
	rng := rand.New(rand.NewSource(7))
	p := NewDefault(n)
	for _, tc := range cases {
		for trial := 0; trial < 10; trial++ {
			st := randomKernelState(p, rng)
			want := p.MulMV(p.GateDD(tc.u, tc.tgt, tc.ctl), st)
			got := p.ApplyGateV(tc.u, tc.tgt, tc.ctl, st)
			if got != want {
				t.Fatalf("%s trial %d: kernel edge %v, legacy %v", tc.name, trial, got, want)
			}
		}
	}
	if p.ApplyGateV(hMat, 1, nil, p.VZero()) != p.VZero() {
		t.Fatal("kernel on the zero state must return the zero edge")
	}
}

// TestApplyGateVTelemetry checks the kernel's Stats plumbing: per-class
// call counters and a warm compute table on repeated application.
func TestApplyGateVTelemetry(t *testing.T) {
	p := NewDefault(3)
	st := p.ZeroState()
	st = p.ApplyGateV(hMat, 0, nil, st) // generic
	st = p.ApplyGateV(xMat, 1, nil, st) // permutation
	st = p.ApplyGateV(zMat, 2, nil, st) // diagonal
	st = p.ApplyGateV(xMat, 2, []Control{{Qubit: 0}}, st)
	s := p.Snapshot()
	if s.ApplyCalls != 4 || s.ApplyGeneric != 1 || s.ApplyPerm != 2 || s.ApplyDiag != 1 {
		t.Fatalf("class counters: %+v", s)
	}
	if s.ApplyHits+s.ApplyMisses == 0 {
		t.Fatal("apply table was never probed")
	}
	before := p.Snapshot()
	for i := 0; i < 4; i++ {
		p.ApplyGateV(hMat, 0, nil, st)
	}
	after := p.Snapshot()
	if after.ApplyHits <= before.ApplyHits {
		t.Fatalf("repeated identical applications should hit the apply table (%d -> %d)",
			before.ApplyHits, after.ApplyHits)
	}
	if r := after.ApplyHitRate(); r <= 0 || r > 1 {
		t.Fatalf("apply hit rate out of range: %v", r)
	}
}

// TestApplyGateVAcrossGC checks that garbage collection (which clears the
// apply compute table, and — forced by memory pressure — flushes the gate
// registry) never changes kernel results.
func TestApplyGateVAcrossGC(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := NewDefault(4)
	epoch := uint64(0)
	p.setPressure(func() uint64 { epoch++; return epoch }) // every MaybeGC flushes
	st := randomKernelState(p, rng)
	for trial := 0; trial < 40; trial++ {
		u := randomUnitary(rng)
		tgt := rng.Intn(4)
		ctl := randomControls(rng, 4, tgt)
		got := p.ApplyGateV(u, tgt, ctl, st)
		p.MaybeGC([]VEdge{st, got}, nil)
		again := p.ApplyGateV(u, tgt, ctl, st)
		if got != again {
			t.Fatalf("trial %d: kernel result changed across GC (%v vs %v)", trial, got, again)
		}
		want := p.MulMV(p.GateDD(u, tgt, ctl), st)
		if got != want {
			t.Fatalf("trial %d: kernel %v, legacy %v after GC", trial, got, want)
		}
		st = got
	}
}

// TestApplyGateVValidation mirrors GateDD's argument checking.
func TestApplyGateVValidation(t *testing.T) {
	p := NewDefault(3)
	st := p.ZeroState()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("target out of range", func() { p.ApplyGateV(xMat, 3, nil, st) })
	mustPanic("control out of range", func() { p.ApplyGateV(xMat, 0, []Control{{Qubit: 9}}, st) })
	mustPanic("control on target", func() { p.ApplyGateV(xMat, 1, []Control{{Qubit: 1}}, st) })
	mustPanic("duplicate control", func() {
		p.ApplyGateV(xMat, 0, []Control{{Qubit: 1}, {Qubit: 1, Neg: true}}, st)
	})
}
