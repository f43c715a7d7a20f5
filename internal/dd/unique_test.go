package dd

import (
	"math/rand"
	"testing"
)

// TestUniqueTableGrowth grows both unique tables through several doublings
// and checks that every node stays interned: the tables validate, and
// rebuilding the same DDs creates no node and returns the same edges.
func TestUniqueTableGrowth(t *testing.T) {
	const n = 10
	p := New(n, 1e-10)
	v0, m0 := len(p.vU.s), len(p.mU.s)

	build := func() ([]VEdge, []MEdge) {
		var vs []VEdge
		for i := uint64(0); i < 1<<n; i += 3 {
			vs = append(vs, p.BasisState(i))
		}
		var ms []MEdge
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			ms = append(ms, p.buildGateDD(randomUnitary(rng), rng.Intn(n), nil))
		}
		return vs, ms
	}
	vs, ms := build()
	if got := len(p.vU.s); got < 8*v0 {
		t.Fatalf("vector table grew %d -> %d slots, want at least three doublings", v0, got)
	}
	if got := len(p.mU.s); got < 8*m0 {
		t.Fatalf("matrix table grew %d -> %d slots, want at least three doublings", m0, got)
	}
	if err := p.ValidateTables(); err != nil {
		t.Fatal(err)
	}
	for _, e := range vs {
		if err := p.ValidateV(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range ms {
		if err := p.ValidateM(e); err != nil {
			t.Fatal(err)
		}
	}

	created := p.Snapshot().NodesCreated
	vs2, ms2 := build()
	if got := p.Snapshot().NodesCreated; got != created {
		t.Errorf("rebuilding interned DDs created %d nodes", got-created)
	}
	for i := range vs {
		if vs[i] != vs2[i] {
			t.Fatalf("basis state %d rebuilt as a different edge", i)
		}
	}
	for i := range ms {
		if ms[i] != ms2[i] {
			t.Fatalf("gate %d rebuilt as a different edge", i)
		}
	}

	// A rooted collection keeps the grown capacity and every root.
	vCap, mCap := len(p.vU.s), len(p.mU.s)
	p.GC(vs[:len(vs)/2], ms[:len(ms)/2])
	if len(p.vU.s) != vCap || len(p.mU.s) != mCap {
		t.Errorf("collection resized the tables: %d/%d -> %d/%d slots", vCap, mCap, len(p.vU.s), len(p.mU.s))
	}
	if err := p.ValidateTables(); err != nil {
		t.Fatal(err)
	}
	for _, e := range vs[:len(vs)/2] {
		if err := p.ValidateV(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGCFreeListIndexOrder: a collection lists free slots so the lowest
// index is handed out first, whatever order the nodes died in — the
// property that makes pooled runs reproducible.
func TestGCFreeListIndexOrder(t *testing.T) {
	p := New(6, 1e-10)
	var keep []VEdge
	for i := uint64(0); i < 1<<6; i++ {
		e := p.BasisState(i)
		if i%5 == 0 {
			keep = append(keep, e)
		}
	}
	p.GC(keep, nil)
	free := p.vA.free
	if len(free) == 0 {
		t.Fatal("collection freed nothing")
	}
	for i := 1; i < len(free); i++ {
		if free[i] >= free[i-1] {
			t.Fatalf("free list not in descending index order at %d: %v", i, free)
		}
	}
	lowest := free[len(free)-1]
	if r := p.vA.alloc(); r != lowest {
		t.Errorf("alloc returned slot %d, want the lowest free slot %d", r, lowest)
	}
}
