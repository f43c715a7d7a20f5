package dd

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qcec/internal/resource"
)

// ghzJob runs a small GHZ-construction workload on p and sanity-checks the
// result, returning the final state.
func ghzJob(t *testing.T, p *Package) VEdge {
	t.Helper()
	st := p.ZeroState()
	st = p.ApplyGateV(hMat, 0, nil, st)
	for q := 1; q < p.Qubits(); q++ {
		st = p.ApplyGateV(xMat, q, []Control{{Qubit: q - 1}}, st)
	}
	want := 1 / math.Sqrt2
	if got := p.Amplitude(st, 0); math.Abs(real(got)-want) > 1e-9 {
		t.Fatalf("GHZ amplitude(0...0) = %v, want %v", got, want)
	}
	return st
}

type recordingInjector struct{ calls int }

func (r *recordingInjector) BeforeApply(*Package, uint64) { r.calls++ }

type panicInjector struct{ at uint64 }

func (pi *panicInjector) BeforeApply(_ *Package, nth uint64) {
	if nth == pi.at {
		panic("injected fault")
	}
}

func TestResetClearsPerJobState(t *testing.T) {
	p := New(4, 1e-10)
	inj := &recordingInjector{}
	p.SetFaultInjector(inj)
	p.SetNodeLimit(1 << 20)
	p.SetDeadline(time.Now().Add(time.Hour))
	p.setCancel(func() bool { return false })
	p.setPressure(func() uint64 { return 7 })
	p.SetGCThreshold(123)
	ghzJob(t, p)
	if inj.calls == 0 {
		t.Fatalf("injector never fired; test exercises nothing")
	}

	p.Reset()

	if p.nodeLimit != 0 || !p.deadline.IsZero() || p.cancel != nil {
		t.Errorf("limit/deadline/cancel survived Reset")
	}
	if p.pressure != nil || p.pressureSeen != 0 {
		t.Errorf("pressure hook state survived Reset")
	}
	if p.faults != nil {
		t.Errorf("per-package fault injector survived Reset")
	}
	if p.gcFloor != DefaultGCThreshold {
		t.Errorf("collection floor %d not restored to the default", p.gcFloor)
	}
	s := p.Snapshot()
	if s.NodesCreated != 0 || s.CacheHits != 0 || s.CacheMisses != 0 ||
		s.UniqueLookups != 0 || s.UniqueHits != 0 ||
		s.GateHits != 0 || s.GateMisses != 0 ||
		s.ApplyCalls != 0 || s.ApplyHits != 0 || s.ApplyMisses != 0 ||
		s.WeightLookups != 0 || s.WeightHits != 0 ||
		s.GCRuns != 0 || s.GCReclaimed != 0 || s.PressureGCs != 0 ||
		s.FaultEvents != 0 {
		t.Errorf("counters survived Reset: %+v", s)
	}

	// The package must be fully usable for a fresh job afterwards.
	ghzJob(t, p)
	if got := p.Snapshot().FaultEvents; got != 0 {
		t.Errorf("fault events on the clean job after Reset: %d", got)
	}
}

// warmGates builds the GHZ alphabet's full-register gate DDs (the apply
// kernel used by ghzJob registers its gates but builds no matrix DDs, so
// warm them directly).
func warmGates(p *Package) {
	p.GateDD(hMat, 0, nil)
	for q := 1; q < p.Qubits(); q++ {
		p.GateDD(xMat, q, []Control{{Qubit: q - 1}})
	}
}

// rootedNodes counts the nodes reachable from the package's own roots (the
// identity chain and the gate registry): all a Reset may keep.
func rootedNodes(p *Package) int {
	seen := map[MRef]bool{}
	var walk func(n MRef)
	walk = func(n MRef) {
		if n == 0 || seen[n] {
			return
		}
		seen[n] = true
		for _, c := range p.mA.ch[n] {
			walk(c)
		}
	}
	for _, e := range p.idents {
		walk(e.N)
	}
	for _, g := range p.gates {
		if g.built {
			walk(g.n)
		}
	}
	return len(seen)
}

func TestResetKeepsWarmState(t *testing.T) {
	p := New(4, 1e-10)
	ghzJob(t, p)
	warmGates(p)
	// Unrooted matrix garbage with fresh weights, enough to double the
	// matrix unique table a few times.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		p.buildGateDD(randomUnitary(rng), rng.Intn(4), nil)
	}
	before := p.Snapshot()
	if before.GateCacheSize == 0 {
		t.Fatalf("job built no gate DDs; warmth cannot be observed")
	}
	weights := before.WeightsStored
	arBefore := p.Arena()
	vCap, mCap := len(p.vU.s), len(p.mU.s)
	if mCap <= refTableInitCap {
		t.Fatalf("matrix table never grew (%d slots); capacity retention cannot be observed", mCap)
	}

	p.Reset()

	if len(p.vU.s) != vCap || len(p.mU.s) != mCap {
		t.Errorf("unique tables resized across Reset: %d/%d -> %d/%d slots (want capacity kept)",
			vCap, mCap, len(p.vU.s), len(p.mU.s))
	}
	if p.vU.n != 0 {
		t.Errorf("Reset kept %d vector nodes; nothing roots a vector", p.vU.n)
	}
	if want := rootedNodes(p); p.mU.n != want {
		t.Errorf("Reset kept %d matrix nodes, want the %d rooted by the identity chain and gate registry", p.mU.n, want)
	}
	if err := p.ValidateTables(); err != nil {
		t.Errorf("tables after Reset: %v", err)
	}

	after := p.Snapshot()
	if after.GateCacheSize != before.GateCacheSize {
		t.Errorf("%d registered gate DDs after Reset, want %d (kept warm)",
			after.GateCacheSize, before.GateCacheSize)
	}
	if after.WeightsStored != weights {
		t.Errorf("interned weights %d after Reset, want %d", after.WeightsStored, weights)
	}
	arAfter := p.Arena()
	if arAfter.VSlots != arBefore.VSlots || arAfter.MSlots != arBefore.MSlots {
		t.Errorf("arena slabs resized across Reset: %+v -> %+v (want recycled in place)", arBefore, arAfter)
	}
	if arAfter.VFree == 0 {
		t.Errorf("Reset freed no vector slots; dead nodes should land on the free list")
	}

	// The second, identical job must be answered entirely by the warm gate
	// registry: zero misses (a fresh package pays one build per distinct gate).
	ghzJob(t, p)
	warmGates(p)
	s := p.Snapshot()
	if s.GateMisses != 0 {
		t.Errorf("warm package rebuilt %d gate DDs", s.GateMisses)
	}
	if s.GateHits == 0 {
		t.Errorf("warm package recorded no gate-registry hits")
	}
	// And it must be served from the recycled slabs: the arenas ran the same
	// workload out of the free lists without growing.
	if ar := p.Arena(); ar.VSlots > arBefore.VSlots || ar.MSlots > arBefore.MSlots {
		t.Errorf("identical warm job grew the arenas: %+v -> %+v", arBefore, ar)
	}
}

func TestPoolReuseBoundsAndBuckets(t *testing.T) {
	pl := NewPool(1)
	p1 := pl.get(3, 1e-10)
	ghzJob(t, p1)
	pl.put(p1)
	if p2 := pl.get(3, 1e-10); p2 != p1 {
		t.Errorf("pool did not hand back the idle package")
	} else {
		pl.put(p2)
	}

	// A different register size or tolerance is a different bucket.
	if q := pl.get(4, 1e-10); q == p1 {
		t.Errorf("pool reused a 3-qubit package for a 4-qubit job")
	} else if q.Qubits() != 4 {
		t.Errorf("fresh package has %d qubits, want 4", q.Qubits())
	}
	if q := pl.get(3, 1e-6); q == p1 {
		t.Errorf("pool reused a package across tolerances")
	}

	// Bucket bound: with perBucket == 1 and one idle package, a second Put
	// into the same bucket is discarded.
	extra := New(3, 1e-10)
	pl.put(extra)
	pl.forget()
	st := pl.Stats()
	if st.Discards != 1 {
		t.Errorf("Discards = %d, want 1", st.Discards)
	}
	if st.Idle != 1 {
		t.Errorf("Idle = %d, want 1", st.Idle)
	}
	if st.Gets != 4 || st.Reuses != 1 || st.Puts != 3 || st.Forgotten != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPoolDropsOutgrownPackages: Reset keeps the interned weights and the
// arena slabs, so Put drops a package past either bound instead of
// carrying it into every later job, and counts it as a discard.
func TestPoolDropsOutgrownPackages(t *testing.T) {
	pl := NewPool(4)
	p := pl.get(3, 1e-10)
	ghzJob(t, p)
	pl.put(p)
	if st := pl.Stats(); st.Idle != 1 || st.Discards != 0 {
		t.Fatalf("an ordinary job's package was not pooled: %+v", st)
	}

	// Weight bound: a job on the pooled package interned more values than
	// the bound.
	p = pl.get(3, 1e-10)
	for i := 0; p.CN.Size() <= poolMaxWeights; i++ {
		p.CN.LookupReal(0.5 + float64(i))
	}
	if p.vA.slots()+p.mA.slots() > poolMaxSlots {
		t.Fatalf("weight case also crossed the slot bound")
	}
	pl.put(p)
	if st := pl.Stats(); st.Discards != 1 || st.Idle != 0 {
		t.Errorf("package with %d weights: stats %+v, want it dropped", p.CN.Size(), st)
	}

	// Slot bound: slabs grown past the bound by an earlier large live set
	// (every slot dead by now, as after any job).
	p = pl.get(3, 1e-10)
	for p.vA.slots()+p.mA.slots() <= poolMaxSlots {
		p.vA.alloc()
	}
	if p.CN.Size() > poolMaxWeights {
		t.Fatalf("slot case also crossed the weight bound")
	}
	pl.put(p)
	if st := pl.Stats(); st.Discards != 2 || st.Idle != 0 {
		t.Errorf("package with %d arena slots: stats %+v, want it dropped", p.vA.slots()+p.mA.slots(), st)
	}

	// The next Get starts fresh rather than inheriting either.
	if q := pl.get(3, 1e-10); q.CN.Size() > poolMaxWeights || q.vA.slots()+q.mA.slots() > poolMaxSlots {
		t.Errorf("pool handed out an outgrown package")
	}
}

// TestPoolConcurrent hammers one pool from many goroutines; run under
// -race (RACE_PKGS covers internal/dd) it proves Get/Put/Stats are safe
// while each package stays single-owner between handovers.
func TestPoolConcurrent(t *testing.T) {
	pl := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := pl.get(3, 1e-10)
				ghzJob(t, p)
				pl.put(p)
				pl.Stats()
			}
		}()
	}
	wg.Wait()
	st := pl.Stats()
	if st.Gets != 160 || st.Puts != 160 {
		t.Errorf("stats = %+v, want 160 gets and puts", st)
	}
	if st.Idle > 4 {
		t.Errorf("pool retains %d idle packages, bound is 4", st.Idle)
	}
}

// TestPooledFaultedThenCleanJob is the regression test for pooled reuse
// leaking fault-injection or watchdog state: a job that installed an
// injector and a pressure hook and then died mid-circuit is returned to the
// pool, and the next job on the same package must observe neither.
func TestPooledFaultedThenCleanJob(t *testing.T) {
	pl := NewPool(1)
	p := pl.get(3, 1e-10)

	// Faulted job: injector panics partway through, watchdog hook installed.
	p.SetFaultInjector(&panicInjector{at: 2})
	epoch := uint64(0)
	p.setPressure(func() uint64 { epoch++; return epoch })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("injected fault did not fire")
			}
		}()
		ghzJob(t, p)
	}()
	if p.Snapshot().FaultEvents == 0 {
		t.Fatalf("faulted job recorded no fault events")
	}
	pl.put(p)

	// Clean job on the recycled package: same pointer, no injector, no
	// pressure hook, correct result, zero fault events.
	q := pl.get(3, 1e-10)
	if q != p {
		t.Fatalf("pool handed out a different package; regression not exercised")
	}
	if q.faults != nil || q.pressure != nil || q.pressureSeen != 0 {
		t.Fatalf("faulted job's hooks leaked into the pooled package")
	}
	ghzJob(t, q)
	if s := q.Snapshot(); s.FaultEvents != 0 {
		t.Errorf("clean job on pooled package saw %d fault events", s.FaultEvents)
	}
}

// TestResetWithDefaultInjector: Reset re-arms the process-wide default
// injector (mirroring New), so chaos runs keep their injector across pooled
// reuse even though per-package overrides are dropped.
func TestResetWithDefaultInjector(t *testing.T) {
	inj := &recordingInjector{}
	SetDefaultFaultInjector(inj)
	defer SetDefaultFaultInjector(nil)

	p := New(3, 1e-10)
	p.SetFaultInjector(nil) // per-job override: injector off
	p.Reset()
	if p.faults == nil {
		t.Fatalf("Reset did not restore the default injector")
	}
	ghzJob(t, p)
	if inj.calls == 0 {
		t.Errorf("default injector not firing after Reset")
	}
}

// fillBasisStates builds every basis state of p's register — 2^(n+1)-2
// distinct nodes — and returns the panic that stopped it, if any.
func fillBasisStates(p *Package) (stopped any) {
	defer func() { stopped = recover() }()
	for i := uint64(0); i < 1<<p.Qubits(); i++ {
		p.BasisState(i)
	}
	return nil
}

// TestLeaseWiresContextAndWatchdog: a lease wires its package to the
// context it is given.  A cancelled context stops a DD operation within one
// allocation checkpoint (8192 allocations), and a watchdog on the context
// samples the package's occupancy and forces a collection at its next
// MaybeGC after a soft trip.
func TestLeaseWiresContextAndWatchdog(t *testing.T) {
	const n = 13 // 16382 distinct basis-state nodes: two checkpoints' worth

	ctx, cancel := context.WithCancel(context.Background())
	p := (*Pool)(nil).Lease(ctx, n, 0)
	cancel()
	r := fillBasisStates(p)
	if le, ok := r.(*LimitError); !ok || !le.Cancelled {
		t.Fatalf("cancelled lease: allocation stopped with %v, want a *LimitError with Cancelled set", r)
	}
	if created := p.Snapshot().NodesCreated; created > 8192 {
		t.Errorf("cancellation seen after %d allocations, want within one checkpoint (8192)", created)
	}
	p.Release(false)

	w, wctx := resource.Start(context.Background(), resource.Config{SoftLimit: 1, Interval: time.Millisecond})
	defer w.Stop()
	p = NewPool(1).Lease(wctx, n, 0)
	if r := fillBasisStates(p); r != nil {
		t.Fatalf("uncancelled lease panicked: %v", r)
	}
	// Every sample trips the 1-byte soft limit, re-armed every few samples;
	// wait for a trip after the lease read the epoch.
	deadline := time.Now().Add(10 * time.Second)
	for w.Stats().PeakDDNodes == 0 || w.Epoch() == p.pressureSeen {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never saw the leased package: %+v", w.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	p.MaybeGC(nil, nil)
	if st := p.Release(false); st.PressureGCs != 1 {
		t.Errorf("PressureGCs = %d after a soft trip, want 1", st.PressureGCs)
	}
}

// TestLeaseCountsPoolTraffic pins the pool counters through the lease (qcecd
// exports them as qcecd_dd_pool_*_total, and the pool reuse ratio reads two
// of them): a pooled lease counts one Get, a second lease of the bucket
// after Release(false) one Reuse of the same package, and Release(true) one
// Forgotten and no Put.
func TestLeaseCountsPoolTraffic(t *testing.T) {
	pl := NewPool(1)
	p := pl.Lease(nil, 3, 0)
	if st := pl.Stats(); st != (PoolStats{Gets: 1}) {
		t.Errorf("after one lease: %+v", st)
	}
	ghzJob(t, p)
	if st := p.Release(false); st.NodesCreated == 0 {
		t.Errorf("Release returned statistics read after the reset: %+v", st)
	}
	if st := pl.Stats(); st != (PoolStats{Gets: 1, Puts: 1, Idle: 1}) {
		t.Errorf("after Release(false): %+v", st)
	}
	// Tolerance 0 and the default it stands for are one bucket.
	q := pl.Lease(nil, 3, 1e-10)
	if q != p {
		t.Errorf("second lease of the bucket got a fresh package")
	}
	if st := pl.Stats(); st != (PoolStats{Gets: 2, Reuses: 1, Puts: 1}) {
		t.Errorf("after the second lease: %+v", st)
	}
	q.Release(true)
	if st := pl.Stats(); st != (PoolStats{Gets: 2, Reuses: 1, Puts: 1, Forgotten: 1}) {
		t.Errorf("after Release(true): %+v", st)
	}
	if r := pl.Lease(nil, 3, 0); r == p {
		t.Errorf("a package released after a fault came back from the pool")
	}
}
