package dd

import (
	"math"
	"math/cmplx"

	"qcec/internal/cn"
)

// Compute tables are power-of-two hash arrays with overwrite-on-collision
// semantics, matching the JKU package.  Unlike that package's fixed-size
// arrays they are allocated lazily and grow geometrically: creating a
// Package costs nothing, small workloads (a basis-state simulation touches a
// few hundred slots) stay in a cache-friendly 2^10 array, and insert-heavy
// workloads grow to the 2^17 ceiling, which bounds memory and keeps lookups
// O(1) regardless of circuit length.  Growth drops the previous generation —
// these are caches, so discarding entries is always sound.
//
// Entries are pointer-free: they hold node refs and the uint32 IDs of
// interned weights (cn.Table.ByID turns an ID back into its value on a hit),
// so the Go collector never scans the tables, and an entry is a third to a
// half smaller than one holding *cn.Value fields.  Every entry carries the
// generation it was written in; a lookup only accepts an entry stamped with
// the package's current generation (Package.gen), so a collection
// invalidates every table at once by bumping one counter (see
// invalidateComputeTables) instead of zeroing the arrays.
const (
	ctMinBits = 10
	ctMaxBits = 17
)

// ctab is one compute table.  The zero value is ready to use (empty, no
// backing array).  Callers pass full 64-bit hashes; the table masks them
// with its current capacity, so the slot mapping changes transparently when
// it grows.
type ctab[E any] struct {
	e       []E
	inserts int // since the last growth or collection
}

// slot returns the entry for hash h, or nil while the table is unallocated
// (every lookup before the first insert is a miss).
func (t *ctab[E]) slot(h uint64) *E {
	if len(t.e) == 0 {
		return nil
	}
	return &t.e[h&uint64(len(t.e)-1)]
}

// put stores val at hash h, allocating on first use and growing 8x (up to
// the ceiling) once the inserts since the last resize or collection
// outnumber the slots — a cheap proxy for "this workload is collision-bound
// at the current size".  Counting from the last collection sizes a table to
// one generation's working set, not to a job's cumulative traffic.
func (t *ctab[E]) put(h uint64, val E) {
	if len(t.e) == 0 {
		t.e = make([]E, 1<<ctMinBits)
	} else if t.inserts > len(t.e) && len(t.e) < 1<<ctMaxBits {
		next := len(t.e) << 3
		if next > 1<<ctMaxBits {
			next = 1 << ctMaxBits
		}
		t.e = make([]E, next)
		t.inserts = 0
	}
	t.e[h&uint64(len(t.e)-1)] = val
	t.inserts++
}

// restart begins a new generation for the table: the growth counter starts
// over, and the entries are zeroed only when wipe is set (the generation
// counter wrapped, so old stamps could match again).
func (t *ctab[E]) restart(wipe bool) {
	if wipe {
		clear(t.e)
	}
	t.inserts = 0
}

func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// wid returns the ID a compute-table entry stores for an interned weight.
func wid(w *cn.Value) uint32 { return uint32(w.ID()) }

// vRes and mRes rebuild a stored result edge from its node ref and weight ID.
func (p *Package) vRes(n VRef, w uint32) VEdge { return VEdge{W: p.CN.ByID(w), N: n} }
func (p *Package) mRes(n MRef, w uint32) MEdge { return MEdge{W: p.CN.ByID(w), N: n} }

// Compute-table entries.  gen is the generation the entry was written in
// (0 never matches: Package.gen starts at 1), weights are cn.Value IDs (see
// wid), and a result edge is split into its node (resN) and weight (resW).

type addVEntry struct {
	aN, bN    VRef
	aW, bW    uint32
	resN      VRef
	resW, gen uint32
}

type addMEntry struct {
	aN, bN    MRef
	aW, bW    uint32
	resN      MRef
	resW, gen uint32
}

type mvEntry struct {
	m         MRef
	x         VRef
	resN      VRef
	resW, gen uint32
}

type mmEntry struct {
	a, b      MRef
	resN      MRef
	resW, gen uint32
}

type ipEntry struct {
	a, b VRef
	res  complex128
	gen  uint32
}

type ctEntry struct {
	m         MRef
	resN      MRef
	resW, gen uint32
}

// invalidateComputeTables empties every compute table in O(1) by moving the
// package to a new generation.  The arrays are zeroed only when the counter
// wraps around, once every 2^32 - 1 collections.
func (p *Package) invalidateComputeTables() {
	p.gen++
	wipe := p.gen == 0
	if wipe {
		p.gen = 1
	}
	p.addV.restart(wipe)
	p.addM.restart(wipe)
	p.mv.restart(wipe)
	p.mm.restart(wipe)
	p.ip.restart(wipe)
	p.ct.restart(wipe)
	p.ap.restart(wipe)
	p.apb.restart(wipe)
}

// AddV returns the sum of two vector DDs.  Both operands must be rooted at
// the same level (or be terminal/zero edges).
func (p *Package) AddV(a, b VEdge) VEdge {
	zero := p.CN.Zero
	if a.W == zero {
		return b
	}
	if b.W == zero {
		return a
	}
	if a.N == 0 && b.N == 0 {
		return VEdge{W: p.CN.Add(a.W, b.W)}
	}
	if a.N == 0 || b.N == 0 || p.vLv(a.N) != p.vLv(b.N) {
		panic("dd: AddV level mismatch")
	}
	if a.N == b.N { // same function: weights add directly
		w := p.CN.Add(a.W, b.W)
		if w == zero {
			return p.VZero()
		}
		return VEdge{W: w, N: a.N}
	}
	if b.N < a.N { // commutative: canonical operand order
		a, b = b, a
	}
	aW, bW := wid(a.W), wid(b.W)
	h := mix(mix(mix(mix(14695981039346656037, uint64(a.N)), uint64(aW)), uint64(b.N)), uint64(bW))
	if ent := p.addV.slot(h); ent != nil && ent.gen == p.gen && ent.aN == a.N && ent.bN == b.N && ent.aW == aW && ent.bW == bW {
		p.cacheHits++
		return p.vRes(ent.resN, ent.resW)
	}
	p.computeMiss()
	v := p.vLv(a.N)
	r0 := p.AddV(p.scaleV(p.vE(a.N, 0), a.W), p.scaleV(p.vE(b.N, 0), b.W))
	r1 := p.AddV(p.scaleV(p.vE(a.N, 1), a.W), p.scaleV(p.vE(b.N, 1), b.W))
	res := p.makeVNode(v, r0, r1)
	p.addV.put(h, addVEntry{aN: a.N, bN: b.N, aW: aW, bW: bW, resN: res.N, resW: wid(res.W), gen: p.gen})
	return res
}

// AddM returns the sum of two matrix DDs rooted at the same level.
func (p *Package) AddM(a, b MEdge) MEdge {
	zero := p.CN.Zero
	if a.W == zero {
		return b
	}
	if b.W == zero {
		return a
	}
	if a.N == 0 && b.N == 0 {
		return MEdge{W: p.CN.Add(a.W, b.W)}
	}
	if a.N == 0 || b.N == 0 || p.mLv(a.N) != p.mLv(b.N) {
		panic("dd: AddM level mismatch")
	}
	if a.N == b.N {
		w := p.CN.Add(a.W, b.W)
		if w == zero {
			return p.MZero()
		}
		return MEdge{W: w, N: a.N}
	}
	if b.N < a.N {
		a, b = b, a
	}
	aW, bW := wid(a.W), wid(b.W)
	h := mix(mix(mix(mix(1099511628211, uint64(a.N)), uint64(aW)), uint64(b.N)), uint64(bW))
	if ent := p.addM.slot(h); ent != nil && ent.gen == p.gen && ent.aN == a.N && ent.bN == b.N && ent.aW == aW && ent.bW == bW {
		p.cacheHits++
		return p.mRes(ent.resN, ent.resW)
	}
	p.computeMiss()
	v := p.mLv(a.N)
	var r [4]MEdge
	for i := 0; i < 4; i++ {
		r[i] = p.AddM(p.scaleM(p.mE(a.N, i), a.W), p.scaleM(p.mE(b.N, i), b.W))
	}
	res := p.makeMNode(v, r)
	p.addM.put(h, addMEntry{aN: a.N, bN: b.N, aW: aW, bW: bW, resN: res.N, resW: wid(res.W), gen: p.gen})
	return res
}

// MulMV applies the matrix DD m to the vector DD x (one simulation step).
func (p *Package) MulMV(m MEdge, x VEdge) VEdge {
	zero := p.CN.Zero
	if m.W == zero || x.W == zero {
		return p.VZero()
	}
	w := p.CN.Mul(m.W, x.W)
	if m.N == 0 && x.N == 0 {
		return VEdge{W: w}
	}
	if m.N == 0 || x.N == 0 || p.mLv(m.N) != p.vLv(x.N) {
		panic("dd: MulMV level mismatch")
	}
	// Identity fast path: applying I(v+1 levels) is a no-op.
	if v := p.mLv(m.N); v+1 < len(p.idents) && p.idents[v+1].N == m.N {
		return p.scaleV(VEdge{W: p.CN.One, N: x.N}, w)
	}
	h := mix(mix(0x51ed270b, uint64(m.N)), uint64(x.N))
	if ent := p.mv.slot(h); ent != nil && ent.gen == p.gen && ent.m == m.N && ent.x == x.N {
		p.cacheHits++
		return p.scaleV(p.vRes(ent.resN, ent.resW), w)
	}
	p.computeMiss()
	v := p.mLv(m.N)
	x0, x1 := p.vE(x.N, 0), p.vE(x.N, 1)
	r0 := p.AddV(p.MulMV(p.mE(m.N, 0), x0), p.MulMV(p.mE(m.N, 1), x1))
	r1 := p.AddV(p.MulMV(p.mE(m.N, 2), x0), p.MulMV(p.mE(m.N, 3), x1))
	res := p.makeVNode(v, r0, r1)
	p.mv.put(h, mvEntry{m: m.N, x: x.N, resN: res.N, resW: wid(res.W), gen: p.gen})
	return p.scaleV(res, w)
}

// MulMM returns the matrix product a·b (one equivalence-checking step).
func (p *Package) MulMM(a, b MEdge) MEdge {
	zero := p.CN.Zero
	if a.W == zero || b.W == zero {
		return p.MZero()
	}
	w := p.CN.Mul(a.W, b.W)
	if a.N == 0 && b.N == 0 {
		return MEdge{W: w}
	}
	if a.N == 0 || b.N == 0 || p.mLv(a.N) != p.mLv(b.N) {
		panic("dd: MulMM level mismatch")
	}
	if v := p.mLv(a.N); v+1 < len(p.idents) {
		if p.idents[v+1].N == a.N {
			return p.scaleM(MEdge{W: p.CN.One, N: b.N}, w)
		}
		if p.idents[v+1].N == b.N {
			return p.scaleM(MEdge{W: p.CN.One, N: a.N}, w)
		}
	}
	h := mix(mix(0x2545F4914F6CDD1D, uint64(a.N)), uint64(b.N))
	if ent := p.mm.slot(h); ent != nil && ent.gen == p.gen && ent.a == a.N && ent.b == b.N {
		p.cacheHits++
		return p.scaleM(p.mRes(ent.resN, ent.resW), w)
	}
	p.computeMiss()
	v := p.mLv(a.N)
	var r [4]MEdge
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			r[row*2+col] = p.AddM(
				p.MulMM(p.mE(a.N, row*2), p.mE(b.N, col)),
				p.MulMM(p.mE(a.N, row*2+1), p.mE(b.N, 2+col)),
			)
		}
	}
	res := p.makeMNode(v, r)
	p.mm.put(h, mmEntry{a: a.N, b: b.N, resN: res.N, resW: wid(res.W), gen: p.gen})
	return p.scaleM(res, w)
}

// InnerProduct returns <a|b>, i.e. the complex overlap of two states.  This
// is exactly the quantity the paper compares per simulation run
// (Sec. IV-A: <u_i|u'_i> = 1 for all i iff the circuits are equivalent).
func (p *Package) InnerProduct(a, b VEdge) complex128 {
	if a.W == p.CN.Zero || b.W == p.CN.Zero {
		return 0
	}
	w := cmplx.Conj(a.W.Complex()) * b.W.Complex()
	if a.N == 0 && b.N == 0 {
		return w
	}
	if a.N == 0 || b.N == 0 || p.vLv(a.N) != p.vLv(b.N) {
		panic("dd: InnerProduct level mismatch")
	}
	h := mix(mix(0x9E3779B1, uint64(a.N)), uint64(b.N))
	if ent := p.ip.slot(h); ent != nil && ent.gen == p.gen && ent.a == a.N && ent.b == b.N {
		p.cacheHits++
		return w * ent.res
	}
	p.computeMiss()
	f := p.InnerProduct(p.vE(a.N, 0), p.vE(b.N, 0)) + p.InnerProduct(p.vE(a.N, 1), p.vE(b.N, 1))
	p.ip.put(h, ipEntry{a: a.N, b: b.N, res: f, gen: p.gen})
	return w * f
}

// Fidelity returns |<a|b>|^2.
func (p *Package) Fidelity(a, b VEdge) float64 {
	ipv := p.InnerProduct(a, b)
	re, im := real(ipv), imag(ipv)
	return re*re + im*im
}

// Norm returns the 2-norm of a state DD.
func (p *Package) Norm(a VEdge) float64 {
	n2 := real(p.InnerProduct(a, a))
	if n2 < 0 {
		n2 = 0
	}
	return math.Sqrt(n2)
}

// ConjugateTranspose returns the adjoint of a matrix DD.
func (p *Package) ConjugateTranspose(m MEdge) MEdge {
	if m.W == p.CN.Zero {
		return p.MZero()
	}
	wc := p.CN.Conj(m.W)
	if m.N == 0 {
		return MEdge{W: wc}
	}
	h := mix(0xC6A4A7935BD1E995, uint64(m.N))
	if ent := p.ct.slot(h); ent != nil && ent.gen == p.gen && ent.m == m.N {
		p.cacheHits++
		return p.scaleM(p.mRes(ent.resN, ent.resW), wc)
	}
	p.computeMiss()
	res := p.makeMNode(p.mLv(m.N), [4]MEdge{
		p.ConjugateTranspose(p.mE(m.N, 0)),
		p.ConjugateTranspose(p.mE(m.N, 2)),
		p.ConjugateTranspose(p.mE(m.N, 1)),
		p.ConjugateTranspose(p.mE(m.N, 3)),
	})
	p.ct.put(h, ctEntry{m: m.N, resN: res.N, resW: wid(res.W), gen: p.gen})
	return p.scaleM(res, wc)
}
