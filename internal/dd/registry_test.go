package dd

import (
	"math"
	"math/cmplx"
	"reflect"
	"sync"
	"testing"
)

// xMat and hMat are shared with dd_test.go.

func phaseMat(theta float64) [2][2]complex128 {
	return [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, theta))}}
}

// TestGateCacheHit: rebuilding the same gate must be answered by the cache
// with the identical root edge.
func TestGateCacheHit(t *testing.T) {
	p := NewDefault(4)
	a := p.GateDD(hMat, 2, []Control{{Qubit: 0}})
	b := p.GateDD(hMat, 2, []Control{{Qubit: 0}})
	if a != b {
		t.Fatalf("cached gate differs: %v vs %v", a, b)
	}
	s := p.Snapshot()
	if s.GateHits != 1 || s.GateMisses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %d / %d", s.GateHits, s.GateMisses)
	}
}

// TestGateCacheKeyDistinguishes: target, control polarity and control set
// must all separate cache entries.
func TestGateCacheKeyDistinguishes(t *testing.T) {
	p := NewDefault(4)
	base := p.GateDD(xMat, 1, []Control{{Qubit: 0}})
	cases := []MEdge{
		p.GateDD(xMat, 2, []Control{{Qubit: 0}}),            // different target
		p.GateDD(xMat, 1, []Control{{Qubit: 0, Neg: true}}), // negative control
		p.GateDD(xMat, 1, []Control{{Qubit: 3}}),            // different control
		p.GateDD(xMat, 1, nil),                              // no control
		p.GateDD(hMat, 1, []Control{{Qubit: 0}}),            // different matrix
	}
	for i, e := range cases {
		if e == base {
			t.Fatalf("case %d collided with base CX", i)
		}
	}
	if s := p.Snapshot(); s.GateHits != 0 {
		t.Fatalf("distinct gates must all miss, got %d hits", s.GateHits)
	}
}

// TestGateCacheMatchesUncached: the registered gate DD must be entry-wise
// identical to a bare bottom-up construction on another package for a
// spread of gates, including multi-controlled and negative-controlled ones.
func TestGateCacheMatchesUncached(t *testing.T) {
	type gate struct {
		u        [2][2]complex128
		target   int
		controls []Control
	}
	gates := []gate{
		{hMat, 0, nil},
		{xMat, 3, []Control{{Qubit: 0}, {Qubit: 2, Neg: true}}},
		{phaseMat(math.Pi / 4), 2, []Control{{Qubit: 3}}},
		{xMat, 1, []Control{{Qubit: 0}, {Qubit: 2}, {Qubit: 3}}},
	}
	pc := NewDefault(4)
	pu := NewDefault(4)
	for gi, g := range gates {
		// Build twice on the registry package so the second build is a hit.
		pc.GateDD(g.u, g.target, g.controls)
		mc := pc.GateDD(g.u, g.target, g.controls)
		mu := pu.buildGateDD(g.u, g.target, g.controls)
		for r := uint64(0); r < 16; r++ {
			for c := uint64(0); c < 16; c++ {
				a, b := pc.MatrixEntry(mc, r, c), pu.MatrixEntry(mu, r, c)
				if cmplx.Abs(a-b) > 1e-12 {
					t.Fatalf("gate %d entry (%d,%d): cached %v != uncached %v", gi, r, c, a, b)
				}
			}
		}
	}
	if s := pu.Snapshot(); s.GateHits != 0 || s.GateMisses != 0 || s.GateCacheSize != 0 {
		t.Fatalf("bare construction must bypass the registry: %d hits %d misses %d entries",
			s.GateHits, s.GateMisses, s.GateCacheSize)
	}
}

// TestGateCacheSurvivesGC: a collection with no caller roots must keep the
// cached gates alive and canonical — rebuilding after GC returns the same
// root edge without a rebuild.
func TestGateCacheSurvivesGC(t *testing.T) {
	p := NewDefault(5)
	before := p.GateDD(xMat, 4, []Control{{Qubit: 1}, {Qubit: 3, Neg: true}})
	p.GC(nil, nil)
	after := p.GateDD(xMat, 4, []Control{{Qubit: 1}, {Qubit: 3, Neg: true}})
	if before != after {
		t.Fatalf("gate edge changed across GC: %v vs %v", before, after)
	}
	s := p.Snapshot()
	if s.GateHits != 1 {
		t.Fatalf("post-GC rebuild should hit the re-rooted cache, got %d hits", s.GateHits)
	}
	if s.GCRuns != 1 {
		t.Fatalf("want 1 GC run, got %d", s.GCRuns)
	}
}

// TestGateCacheFlushOnOversizedGC: when the registry exceeds its limit, a
// collection flushes it instead of rooting an unbounded population.
func TestGateCacheFlushOnOversizedGC(t *testing.T) {
	p := NewDefault(3)
	for i := 0; i < 16; i++ {
		p.GateDD(phaseMat(float64(i)/7), 0, nil)
	}
	if s := p.Snapshot(); s.GateCacheSize != 16 {
		t.Fatalf("want 16 registered gate DDs, got %d", s.GateCacheSize)
	}
	// Registering ids alone (the kernel's path) counts against the limit too.
	for i := 16; i <= gateRegistryLimit; i++ {
		p.PrepareSpec(GateSpec{U: phaseMat(float64(i) / 7), Target: 0})
	}
	if len(p.gateIDs) != gateRegistryLimit+1 {
		t.Fatalf("want %d registered gates, got %d", gateRegistryLimit+1, len(p.gateIDs))
	}
	p.GC(nil, nil)
	s := p.Snapshot()
	if s.GateCacheSize != 0 || len(p.gateIDs) != 0 {
		t.Fatalf("oversized registry must be flushed, still %d DDs / %d ids", s.GateCacheSize, len(p.gateIDs))
	}
	if s.GateFlushes != 1 {
		t.Fatalf("want 1 flush, got %d", s.GateFlushes)
	}
	// The flushed registry must rebuild correctly.
	m := p.GateDD(phaseMat(1.0/7), 0, nil)
	if got := p.MatrixEntry(m, 1, 1); cmplx.Abs(got-cmplx.Exp(complex(0, 1.0/7))) > 1e-12 {
		t.Fatalf("post-flush rebuild wrong: %v", got)
	}
}

// TestGateRegistryKeyIsPointerFree: the registry's map key and slots hold
// weight IDs and node refs, never pointers, so Go's collector skips them.
func TestGateRegistryKeyIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(gateKey{}), reflect.TypeOf(gateSlot{})} {
		for i := 0; i < typ.NumField(); i++ {
			switch typ.Field(i).Type.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.String:
				t.Errorf("%s.%s holds a pointer (%s)", typ.Name(), typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
}

// TestGateRegistrySharedByKernelAndGateDD: GateDD, ApplyGateV and
// PrepareSpec register one gate under one id, so the kernel's memo id and
// the memoized matrix DD live in a single entry.
func TestGateRegistrySharedByKernelAndGateDD(t *testing.T) {
	p := NewDefault(3)
	ctl := []Control{{Qubit: 2, Neg: true}}
	st := p.BasisState(0b011)
	p.ApplyGateV(hMat, 1, ctl, st)
	pg := p.PrepareSpec(GateSpec{U: hMat, Target: 1, Controls: ctl})
	m := p.GateDD(hMat, 1, ctl)
	if len(p.gateIDs) != 1 {
		t.Fatalf("one gate through three entry points registered %d ids", len(p.gateIDs))
	}
	if pg.spec.gid != 1 {
		t.Fatalf("prepared gate holds id %d, want the shared id 1", pg.spec.gid)
	}
	if got, want := p.ApplyPrepared(pg, st), p.MulMV(m, st); got != want {
		t.Fatalf("kernel %v, matrix product %v", got, want)
	}
	p.GateDD(xMat, 1, ctl)
	if len(p.gateIDs) != 2 {
		t.Fatalf("a second gate must get its own id, have %d", len(p.gateIDs))
	}
}

// TestGateRegistryWarmAcrossPoolReset: a pooled package keeps its registry
// through Put's Reset, so the next job rebuilds no gate DD and its prepared
// gates keep their ids.
func TestGateRegistryWarmAcrossPoolReset(t *testing.T) {
	pl := NewPool(1)
	p := pl.Get(4, 1e-10)
	pg := p.PrepareSpec(GateSpec{U: hMat, Target: 0})
	warmGates(p)
	built := p.Snapshot().GateCacheSize
	pl.Put(p)

	q := pl.Get(4, 1e-10)
	if q != p {
		t.Fatal("pool did not hand back the warm package")
	}
	warmGates(q)
	s := q.Snapshot()
	if s.GateMisses != 0 || s.GateHits != uint64(built) {
		t.Fatalf("warm job: %d misses, %d hits; want 0 and %d", s.GateMisses, s.GateHits, built)
	}
	st := q.ApplyPrepared(pg, q.ZeroState())
	if pg.epoch != q.gateEpoch || pg.spec.gid != 1 {
		t.Fatalf("prepared gate re-registered across Reset (epoch %d/%d, id %d)", pg.epoch, q.gateEpoch, pg.spec.gid)
	}
	if want := q.MulMV(q.GateDD(hMat, 0, nil), q.ZeroState()); st != want {
		t.Fatalf("prepared gate after Reset: %v, want %v", st, want)
	}
}

// TestGateRegistryPressureFlush: a collection forced by memory pressure
// flushes the registry, and a gate prepared before it re-registers instead
// of reusing an id that now names another gate.
func TestGateRegistryPressureFlush(t *testing.T) {
	p := NewDefault(3)
	pg := p.PrepareSpec(GateSpec{U: hMat, Target: 1, Controls: []Control{{Qubit: 0}}})
	p.GateDD(xMat, 2, nil)
	epoch := uint64(0)
	p.SetPressure(func() uint64 { return epoch })
	st := p.BasisState(0b001)
	epoch++
	if !p.MaybeGC([]VEdge{st}, nil) {
		t.Fatal("pressure did not force a collection")
	}
	s := p.Snapshot()
	if s.PressureGCs != 1 || s.GateFlushes != 1 || s.GateCacheSize != 0 || len(p.gateIDs) != 0 {
		t.Fatalf("pressure collection kept the registry: %+v, %d ids", s, len(p.gateIDs))
	}
	// The freed id 1 goes to another gate first.
	p.ApplyGateV(zMat, 2, nil, st)
	got := p.ApplyPrepared(pg, st)
	if pg.spec.gid == 1 || pg.epoch != p.gateEpoch {
		t.Fatalf("prepared gate kept its stale id %d (epoch %d/%d)", pg.spec.gid, pg.epoch, p.gateEpoch)
	}
	if want := p.MulMV(p.GateDD(hMat, 1, []Control{{Qubit: 0}}), st); got != want {
		t.Fatalf("re-registered gate: %v, want %v", got, want)
	}
	if s := p.Snapshot(); s.GateMisses != 2 {
		t.Fatalf("want 2 gate-DD builds (one per side of the flush), got %d", s.GateMisses)
	}
}

// TestGateCacheValidationStillPanics: the cached fast path must preserve the
// construction-time validation panics.
func TestGateCacheValidationStillPanics(t *testing.T) {
	p := NewDefault(3)
	p.GateDD(xMat, 1, []Control{{Qubit: 0}}) // warm the cache
	for name, call := range map[string]func(){
		"duplicate control": func() { p.GateDD(xMat, 1, []Control{{Qubit: 0}, {Qubit: 0, Neg: true}}) },
		"control == target": func() { p.GateDD(xMat, 1, []Control{{Qubit: 1}}) },
		"control range":     func() { p.GateDD(xMat, 1, []Control{{Qubit: 7}}) },
		"target range":      func() { p.GateDD(xMat, 5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestGateCachePerGoroutine: the cache is strictly per-Package; concurrent
// goroutines on private packages must not interfere (exercised under -race
// by the CI race job).
func TestGateCachePerGoroutine(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	results := make([]complex128, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := NewDefault(4)
			var m MEdge
			for i := 0; i < 50; i++ {
				m = p.GateDD(phaseMat(float64(w)), 2, []Control{{Qubit: 0}})
			}
			// Diagonal entry with both the control (qubit 0) and the
			// target (qubit 2) bit set: the applied phase.
			results[w] = p.MatrixEntry(m, 0b0101, 0b0101)
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		want := cmplx.Exp(complex(0, float64(w)))
		if cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("worker %d: entry %v, want %v", w, got, want)
		}
	}
}

// TestUniqueAndWeightCounters: the instrumentation counters must move when
// the corresponding tables are exercised.
func TestUniqueAndWeightCounters(t *testing.T) {
	p := NewDefault(3)
	p.GateDD(hMat, 0, nil)
	p.BasisState(5)
	p.BasisState(5) // hash-consing hits
	s := p.Snapshot()
	if s.UniqueLookups == 0 {
		t.Fatal("no unique-table lookups recorded")
	}
	if s.UniqueHits == 0 {
		t.Fatal("no unique-table hits recorded")
	}
	if s.UniqueHits > s.UniqueLookups {
		t.Fatalf("hits %d exceed lookups %d", s.UniqueHits, s.UniqueLookups)
	}
	if s.WeightLookups == 0 || s.WeightHits == 0 {
		t.Fatalf("weight-table counters not recorded: %d/%d", s.WeightLookups, s.WeightHits)
	}
	if s.UniqueHitRate() <= 0 || s.UniqueHitRate() > 1 {
		t.Fatalf("bad unique hit rate %g", s.UniqueHitRate())
	}
}

// TestStatsAdd: merging snapshots must sum every field (spot-checked on the
// counters the report surfaces).
func TestStatsAdd(t *testing.T) {
	p1, p2 := NewDefault(3), NewDefault(3)
	p1.GateDD(hMat, 0, nil)
	p1.GateDD(hMat, 0, nil)
	p2.GateDD(xMat, 1, nil)
	a, b := p1.Snapshot(), p2.Snapshot()
	sum := a
	sum.Add(b)
	if sum.GateHits != a.GateHits+b.GateHits {
		t.Fatalf("GateHits: %d != %d+%d", sum.GateHits, a.GateHits, b.GateHits)
	}
	if sum.GateMisses != a.GateMisses+b.GateMisses {
		t.Fatalf("GateMisses: %d != %d+%d", sum.GateMisses, a.GateMisses, b.GateMisses)
	}
	if sum.UniqueLookups != a.UniqueLookups+b.UniqueLookups {
		t.Fatal("UniqueLookups not summed")
	}
	if sum.GateHitRate() <= 0 {
		t.Fatalf("merged hit rate %g", sum.GateHitRate())
	}
}
