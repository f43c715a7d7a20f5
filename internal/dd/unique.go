package dd

import "qcec/internal/cn"

// Unique tables (hash-consing).  Each arena has one: a power-of-two,
// linear-probing array of arena refs.  A slot holds 0 (empty — the terminal
// is never interned) or the ref of a live node, and a probe compares the
// candidate signature (level, child refs, child weights) against the arena
// slabs themselves, so the table stores nothing but refs.  That keeps it
// pointer-free — the Go collector never scans it — and lets the package's
// own collection rebuild it from the surviving arena slots in one pass
// instead of deleting dead entries one at a time (see GC).
//
// The load stays at or below one half (an insert that would exceed it
// doubles the table first), so an unsuccessful probe inspects about 2.5
// slots on average.  Signatures hash the level, the child refs and the
// weights' cn.Value IDs with mix, all deterministic, so a table's layout is
// reproducible run to run.

// refTable is one unique table.  The zero value is unusable; init allocates
// the first generation.
type refTable struct {
	s []uint32 // slots: 0 = empty, otherwise a node ref
	n int      // occupied slots (the kind's live node count)
}

// refTableInitCap is the first generation's slot count: twice the initial
// arena capacity, so a fresh package's tables and slabs fill together.
const refTableInitCap = 2 * arenaInitCap

func (t *refTable) init() { t.s = make([]uint32, refTableInitCap) }

// full reports whether one more entry would push the load above one half.
func (t *refTable) full() bool { return 2*(t.n+1) > len(t.s) }

// place stores r in the first empty slot at or after h's home slot.  The
// caller guarantees r is absent and the table not full.
func (t *refTable) place(h uint64, r uint32) {
	m := uint64(len(t.s) - 1)
	i := h & m
	for t.s[i] != 0 {
		i = (i + 1) & m
	}
	t.s[i] = r
	t.n++
}

// grow doubles the table and re-inserts every entry; sig recomputes an
// entry's hash from its node.
func (t *refTable) grow(sig func(r uint32) uint64) {
	old := t.s
	t.s, t.n = make([]uint32, 2*len(old)), 0
	for _, r := range old {
		if r != 0 {
			t.place(sig(r), r)
		}
	}
}

// empty drops every entry, keeping the capacity.
func (t *refTable) empty() {
	clear(t.s)
	t.n = 0
}

// vHash is the signature hash of a vector node.  Each child contributes its
// ref and its weight's ID in one mixed word (refs and IDs stay far below
// 2^32 in practice, and a collision only costs a probe, never correctness).
func vHash(v int8, w *[2]*cn.Value, c *[2]VRef) uint64 {
	h := mix(uint64(v), uint64(c[0])<<32^w[0].ID())
	return mix(h, uint64(c[1])<<32^w[1].ID())
}

// mHash is the matrix counterpart of vHash.
func mHash(v int8, w *[4]*cn.Value, c *[4]MRef) uint64 {
	h := mix(uint64(v), uint64(c[0])<<32^w[0].ID())
	h = mix(h, uint64(c[1])<<32^w[1].ID())
	h = mix(h, uint64(c[2])<<32^w[2].ID())
	return mix(h, uint64(c[3])<<32^w[3].ID())
}

// vFind returns the interned vector node with the given signature and hash,
// or 0 when there is none.
func (p *Package) vFind(h uint64, v int8, w *[2]*cn.Value, c *[2]VRef) VRef {
	s := p.vU.s
	m := uint64(len(s) - 1)
	for i := h & m; ; i = (i + 1) & m {
		r := VRef(s[i])
		if r == 0 {
			return 0
		}
		if p.vA.ch[r] == *c && p.vA.wt[r] == *w && p.vA.lv[r] == v {
			return r
		}
	}
}

// mFind is the matrix counterpart of vFind.
func (p *Package) mFind(h uint64, v int8, w *[4]*cn.Value, c *[4]MRef) MRef {
	s := p.mU.s
	m := uint64(len(s) - 1)
	for i := h & m; ; i = (i + 1) & m {
		r := MRef(s[i])
		if r == 0 {
			return 0
		}
		if p.mA.ch[r] == *c && p.mA.wt[r] == *w && p.mA.lv[r] == v {
			return r
		}
	}
}

// vSig recomputes the signature hash of an interned vector node from its
// slab fields.
func (p *Package) vSig(r VRef) uint64 { return vHash(p.vA.lv[r], &p.vA.wt[r], &p.vA.ch[r]) }

// mSig recomputes the signature hash of an interned matrix node.
func (p *Package) mSig(r MRef) uint64 { return mHash(p.mA.lv[r], &p.mA.wt[r], &p.mA.ch[r]) }

// sweepV rebuilds the vector unique table and free list from the mark
// bitset: marked nodes are re-interned, every other slot is scrubbed and
// listed free.  The sweep runs from the highest index down, so the free
// list hands out the lowest free index first and its order depends only on
// which slots are free — never on the table's layout or history.  It
// returns the number of live nodes removed.
func (p *Package) sweepV(marked markBits) int {
	a := &p.vA
	p.vU.empty()
	a.free = a.free[:0]
	removed := 0
	for i := len(a.lv) - 1; i > 0; i-- {
		r := VRef(i)
		if a.lv[i] >= 0 {
			if marked.has(uint32(i)) {
				p.vU.place(p.vSig(r), uint32(r))
				continue
			}
			a.scrub(r)
			removed++
		}
		a.free = append(a.free, r)
	}
	return removed
}

// sweepM is the matrix counterpart of sweepV.
func (p *Package) sweepM(marked markBits) int {
	a := &p.mA
	p.mU.empty()
	a.free = a.free[:0]
	removed := 0
	for i := len(a.lv) - 1; i > 0; i-- {
		r := MRef(i)
		if a.lv[i] >= 0 {
			if marked.has(uint32(i)) {
				p.mU.place(p.mSig(r), uint32(r))
				continue
			}
			a.scrub(r)
			removed++
		}
		a.free = append(a.free, r)
	}
	return removed
}
