package dd

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// buildEntangled applies H to qubit 0 and a CX ladder, creating a handful of
// distinct interior nodes on p.
func buildEntangled(p *Package) VEdge {
	st := p.ZeroState()
	st = p.ApplyGateV(hMat, 0, nil, st)
	for q := 1; q < p.Qubits(); q++ {
		st = p.ApplyGateV(xMat, q, []Control{{Qubit: q - 1}}, st)
	}
	return st
}

// TestArenaSlotReuse: a collection must hand dead slots to the arena free
// list, and rebuilding the same structure must be served from that free list
// without growing the slabs.
func TestArenaSlotReuse(t *testing.T) {
	p := New(5, 1e-10)
	buildEntangled(p)
	grown := p.Arena()
	if grown.VSlots == 0 {
		t.Fatalf("workload allocated no vector nodes")
	}

	// Unrooted collection: everything outside the identity chain and gate
	// cache dies, and the slots land on the free lists (not the Go GC).
	p.GC(nil, nil)
	freed := p.Arena()
	if freed.VSlots != grown.VSlots || freed.MSlots != grown.MSlots {
		t.Errorf("collection changed slab sizes: %+v -> %+v", grown, freed)
	}
	if freed.VFree == 0 {
		t.Errorf("collection freed no vector slots: %+v", freed)
	}

	// The identical workload must fit entirely in the recycled slots.
	buildEntangled(p)
	reused := p.Arena()
	if reused.VSlots > grown.VSlots || reused.MSlots > grown.MSlots {
		t.Errorf("rebuild grew the arena past %+v: %+v", grown, reused)
	}
	if reused.VFree >= freed.VFree {
		t.Errorf("rebuild did not draw from the free list: %+v -> %+v", freed, reused)
	}
}

// TestArenaReleaseScrubs: a freed slot is scrubbed (level -1, nil weights),
// so code dereferencing a stale ref fails loudly instead of silently reading
// whatever node recycled the slot.
func TestArenaReleaseScrubs(t *testing.T) {
	p := New(3, 1e-10)
	st := buildEntangled(p)
	stale := st.N
	if stale == 0 {
		t.Fatalf("workload root is the terminal")
	}
	p.GC(nil, nil) // no roots: st dies
	if lv := p.vA.lv[stale]; lv != -1 {
		t.Errorf("freed slot keeps level %d, want -1", lv)
	}
	if w := p.vA.wt[stale]; w[0] != nil || w[1] != nil {
		t.Errorf("freed slot keeps weights %v", w)
	}
}

// TestStatsAddGaugeMax pins Stats.Add's mixed semantics: the point-in-time
// gauges take the per-worker maximum (a population summed across workers
// reports a footprint nothing ever had) while the activity counters sum.
func TestStatsAddGaugeMax(t *testing.T) {
	a := Stats{
		VectorNodes: 100, MatrixNodes: 40, WeightsStored: 9, GateCacheSize: 3,
		NodesCreated: 1000, ApplyCalls: 10, GCRuns: 2,
	}
	b := Stats{
		VectorNodes: 70, MatrixNodes: 90, WeightsStored: 12, GateCacheSize: 1,
		NodesCreated: 500, ApplyCalls: 7, GCRuns: 1,
	}
	a.Add(b)
	if a.VectorNodes != 100 || a.MatrixNodes != 90 || a.WeightsStored != 12 || a.GateCacheSize != 3 {
		t.Errorf("gauges must take the max: %+v", a)
	}
	if a.NodesCreated != 1500 || a.ApplyCalls != 17 || a.GCRuns != 3 {
		t.Errorf("counters must sum: %+v", a)
	}
}

// junkNodes allocates unrooted level-0 vector nodes, one per call of next,
// until the unique-table population reaches to.  Each node carries a fresh
// weight ratio, so none is ever answered by an existing node.
type junkNodes struct{ next int }

func (j *junkNodes) fill(p *Package, to int) {
	for p.NodeCount() < to {
		j.next++
		p.makeVNode(0, p.VTerminal(1), p.VTerminal(complex(0, float64(j.next)*1e-6)))
	}
}

// TestMaybeGCPacing: with a pinned live set L of vector nodes, MaybeGC
// collects exactly when the vector population reaches max(floor, 2L),
// round after round, so neither the trigger nor the arena grows without
// bound; once the roots are dropped the trigger falls back to the floor;
// SetGCThreshold sets both kinds' floors, and a floor of 1 collects at
// every MaybeGC.
func TestMaybeGCPacing(t *testing.T) {
	const floor = 300
	p := New(8, 1e-10)
	p.SetGCThreshold(floor)
	if got := p.gcTrigger(vectorKind); got != floor {
		t.Fatalf("fresh package triggers at %d, want the floor %d", got, floor)
	}

	// Pin every basis state: 2+4+...+256 = 510 live path nodes.
	roots := make([]VEdge, 0, 1<<8)
	for i := uint64(0); i < 1<<8; i++ {
		roots = append(roots, p.BasisState(i))
	}
	p.GC(roots, nil)
	live := p.NodeCount()
	want := max(floor, 2*live)
	if want == floor {
		t.Fatalf("live set %d too small to move the trigger off the floor", live)
	}

	var junk junkNodes
	for round := 0; round < 12; round++ {
		if got := p.gcTrigger(vectorKind); got != want {
			t.Fatalf("round %d: trigger %d, want max(floor %d, 2×live %d) = %d", round, got, floor, live, want)
		}
		junk.fill(p, want-1)
		if p.MaybeGC(roots, nil) {
			t.Fatalf("round %d: collected at %d nodes, below the trigger %d", round, want-1, want)
		}
		junk.fill(p, want)
		if !p.MaybeGC(roots, nil) {
			t.Fatalf("round %d: no collection at the trigger %d", round, want)
		}
		if n := p.NodeCount(); n != live {
			t.Fatalf("round %d: %d nodes survived, want the %d pinned", round, n, live)
		}
	}
	if ar := p.Arena(); ar.VSlots+ar.MSlots > want {
		t.Errorf("arena grew to %d slots under a trigger of %d", ar.VSlots+ar.MSlots, want)
	}

	// Drop the roots: the next collection finds an empty live set, and the
	// trigger returns to the floor.
	junk.fill(p, want)
	if !p.MaybeGC(nil, nil) {
		t.Fatalf("no collection at the trigger %d", want)
	}
	if got := p.gcTrigger(vectorKind); got != floor {
		t.Errorf("trigger %d after the roots were dropped, want the floor %d", got, floor)
	}

	// A floor of 1 (values below clamp to it) switches the pacing off: with
	// the live set rebuilt and pinned again, every MaybeGC collects.
	for i := range roots {
		roots[i] = p.BasisState(uint64(i))
	}
	p.SetGCThreshold(0)
	if p.gcFloor != [2]int{1, 1} {
		t.Errorf("SetGCThreshold(0) set the floors to %v, want both clamped to 1", p.gcFloor)
	}
	for i := 0; i < 3; i++ {
		if !p.MaybeGC(roots, nil) {
			t.Fatalf("floor 1: no collection at %d nodes (%d live)", p.NodeCount(), live)
		}
	}
}

// junkMatrices is junkNodes for matrix nodes.
type junkMatrices struct{ next int }

func (j *junkMatrices) fill(p *Package, to int) {
	for p.mU.n < to {
		j.next++
		p.makeMNode(0, [4]MEdge{p.MTerminal(1), p.MZero(), p.MZero(), p.MTerminal(complex(0, float64(j.next)*1e-6))})
	}
}

// TestGCPacingPerKind: each node kind collects on its own population.  Dead
// vectors past the matrix floor collect nothing below the vector floor, and
// matrices collect at the matrix floor however many dead vectors lie
// around, so the complete check on a package holding a simulation's
// garbage paces as it does alone.  A collection still sweeps both kinds.
func TestGCPacingPerKind(t *testing.T) {
	p := New(8, 1e-10)
	var vecs junkNodes
	vecs.fill(p, 3*DefaultGCThreshold)
	if p.MaybeGC(nil, nil) {
		t.Fatalf("collected at %d dead vectors, below the vector floor %d", p.NodeCount(), VectorGCThreshold)
	}
	var mats junkMatrices
	mats.fill(p, DefaultGCThreshold-1)
	if p.MaybeGC(nil, nil) {
		t.Fatalf("collected at %d matrices (%d nodes in all), below the matrix floor %d", p.mU.n, p.NodeCount(), DefaultGCThreshold)
	}
	mats.fill(p, DefaultGCThreshold)
	if !p.MaybeGC(nil, nil) {
		t.Fatalf("no collection at the matrix floor %d", DefaultGCThreshold)
	}
	if p.vU.n != 0 || p.mU.n != 0 {
		t.Errorf("after the collection %d vectors and %d matrices remain, want both kinds swept", p.vU.n, p.mU.n)
	}
}

// TestSmallJobAfterLargeLiveSet: a package whose arena grew under a large
// live set keeps those slots (the pool reuses packages, and slabs never
// shrink), and every collection sweeps all of them.  A later small job
// must therefore not collect every floor's worth of allocations: the
// trigger waits for a share of the arena, which bounds the sweep to
// gcSweepShare slot visits per allocation.
func TestSmallJobAfterLargeLiveSet(t *testing.T) {
	const floor = 64
	p := New(10, 1e-10)
	roots := make([]VEdge, 0, 1<<10)
	for i := uint64(0); i < 1<<10; i++ {
		roots = append(roots, p.BasisState(i))
	}
	p.GC(roots, nil)
	slots := p.vA.slots() + p.mA.slots()
	if slots/gcSweepShare <= 2*floor {
		t.Fatalf("arena of %d slots too small to tell the policies apart", slots)
	}

	// The large job ends; a small one starts on the same package.
	p.Reset()
	p.SetGCThreshold(floor)
	var junk junkNodes
	allocs, gcs := 20*slots, 0
	for i := 0; i < allocs; i++ {
		junk.fill(p, p.NodeCount()+1)
		if p.MaybeGC(nil, nil) {
			gcs++
		}
	}
	if p.vA.slots()+p.mA.slots() != slots {
		t.Fatalf("small job grew the arena from %d to %d slots", slots, p.vA.slots()+p.mA.slots())
	}
	if visits := float64(gcs) * float64(slots) / float64(allocs); visits > gcSweepShare+0.5 {
		t.Errorf("%d collections over %d allocations sweep %.1f slots per allocation, want at most %d (collecting at the floor would sweep %d)",
			gcs, allocs, visits, gcSweepShare, slots/floor)
	}
}

// TestComputeGenerationWrap: the compute tables are invalidated by bumping
// the package generation, so when the counter wraps around the arrays must
// be wiped — otherwise an entry stamped in an old generation (or a zeroed,
// never-written slot) would read as valid again.
func TestComputeGenerationWrap(t *testing.T) {
	p := New(3, 1e-10)
	a, b := p.GateDD(hMat, 0, nil), p.GateDD(xMat, 2, []Control{{Qubit: 0}})

	// Entries written in the first generation and in the last one before
	// the wrap, plus a slot nobody wrote.
	const first, last, untouched = 1, 2, 3
	p.mm.put(first, mmEntry{a: 7, b: 7, gen: p.gen})
	p.gen = math.MaxUint32
	p.mm.put(last, mmEntry{a: 8, b: 8, gen: p.gen})
	p.MulMM(a, b) // a real product stamped with the last generation
	misses := p.cacheMisses
	p.MulMM(a, b)
	if p.cacheMisses != misses {
		t.Fatalf("repeated product missed within one generation")
	}

	p.GC(nil, nil) // the gate registry keeps a and b alive across the wrap
	for _, h := range []uint64{first, last, untouched} {
		if e := p.mm.slot(h); e.gen == p.gen {
			t.Errorf("slot %d reads as valid after the wrap: %+v", h, *e)
		}
	}
	p.MulMM(a, b)
	if p.cacheMisses == misses {
		t.Errorf("product served from an entry written before the wrap")
	}
}

// TestComputeEntriesPointerFree: every compute table's entry type holds only
// plain data (no pointer, slice, map, string, interface, channel or func,
// at any depth), so the Go collector never scans the tables; and the
// entries the complete check hits hardest keep their compact sizes.
func TestComputeEntriesPointerFree(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	pkg := reflect.TypeOf(Package{})
	tables := 0
	for i := 0; i < pkg.NumField(); i++ {
		f := pkg.Field(i)
		if !strings.HasPrefix(f.Type.Name(), "ctab[") {
			continue
		}
		tables++
		entry := f.Type.Field(0).Type.Elem() // ctab.e is []E
		check(f.Name+" "+entry.Name(), entry)
	}
	if tables != 8 {
		t.Errorf("found %d compute tables, want 8", tables)
	}

	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"mmEntry", unsafe.Sizeof(mmEntry{}), 20},
		{"addMEntry", unsafe.Sizeof(addMEntry{}), 28},
		{"apEntry", unsafe.Sizeof(apEntry{}), 24},
		{"ctEntry", unsafe.Sizeof(ctEntry{}), 16},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.size, c.want)
		}
	}
}
