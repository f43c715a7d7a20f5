package dd

import "qcec/internal/cn"

// Arena-backed node storage.  Nodes do not live as individually allocated Go
// objects: each Package owns one vector arena and one matrix arena, growable
// struct-of-arrays slabs addressed by 32-bit indices.  Edges (VEdge, MEdge)
// carry those indices instead of heap pointers, and the unique tables (see
// unique.go) are open-addressing arrays of those indices.
//
// This buys the two things a multicore stimulus fleet needs from its hottest
// data structure:
//
//   - GC economy.  A simulation run used to allocate millions of small
//     VNode/MNode objects that Go's collector had to trace individually.
//     The arena collapses them into a handful of large slices, and the
//     struct-of-arrays split keeps the pointer-bearing data (the child
//     weight slots, which reference interned cn.Values) in dedicated arrays
//     while the child indices and levels are pointer-free and invisible to
//     the Go GC entirely.
//   - Cheap recycling.  The package's own mark/sweep (see GC) returns dead
//     slots to a free list instead of handing garbage to the Go runtime, and
//     Package.Reset recycles the slabs and unique tables in place — a pooled
//     worker package keeps its backing arrays across jobs at zero
//     allocation cost.
//
// Index lifetime rules (the GC interaction callers must respect):
//
//   - Index 0 is the terminal in both arenas; it is never allocated and
//     never freed.  A VEdge/MEdge with N == 0 points at the terminal.
//   - A live index stays valid until a collection runs without that node
//     being reachable from the passed roots (or from the package's own
//     roots: the identity chain and the gate registry).  Freed slots are
//     reused by later allocations, so holding an edge across an unrooted
//     collection is a correctness bug, not just a canonicity leak — exactly
//     the rooting discipline GC's documentation has always demanded.
//   - Compute-table entries store indices too; every collection invalidates
//     the compute tables before slots are reused, so no stale index can ever
//     be observed through them.

// VRef addresses a vector-DD node in its package's arena.  0 is the
// terminal.  Refs are meaningful only within the package that issued them.
type VRef uint32

// MRef addresses a matrix-DD node in its package's arena.  0 is the
// terminal.
type MRef uint32

// vArena is the struct-of-arrays backing store for vector nodes: slot i of
// each array holds one field of node i.  lv and ch are pointer-free; only wt
// is scanned by the Go GC.
type vArena struct {
	lv   []int8         // qubit level
	ch   [][2]VRef      // successor refs
	wt   [][2]*cn.Value // successor weights (interned)
	free []VRef         // freed slots awaiting reuse
}

// mArena is the matrix counterpart of vArena (four successors, row*2+col).
type mArena struct {
	lv   []int8
	ch   [][4]MRef
	wt   [][4]*cn.Value
	free []MRef
}

// arenaInitCap sizes the slabs' first allocation; append's geometric growth
// handles everything beyond it.  Deliberately small: every core.Check on a
// fresh (unpooled) package pays for zeroing the initial slabs, so a large
// starting capacity would tax the many short checks to save the few big
// ones a handful of grows.
const arenaInitCap = 1 << 8

func (a *vArena) init() {
	a.lv = make([]int8, 1, arenaInitCap)
	a.ch = make([][2]VRef, 1, arenaInitCap)
	a.wt = make([][2]*cn.Value, 1, arenaInitCap)
	a.lv[0] = -1 // slot 0: the terminal sentinel
}

func (a *mArena) init() {
	a.lv = make([]int8, 1, arenaInitCap)
	a.ch = make([][4]MRef, 1, arenaInitCap)
	a.wt = make([][4]*cn.Value, 1, arenaInitCap)
	a.lv[0] = -1
}

// alloc returns a free slot, reusing a released one when available.
func (a *vArena) alloc() VRef {
	if k := len(a.free) - 1; k >= 0 {
		r := a.free[k]
		a.free = a.free[:k]
		return r
	}
	a.lv = append(a.lv, 0)
	a.ch = append(a.ch, [2]VRef{})
	a.wt = append(a.wt, [2]*cn.Value{})
	return VRef(len(a.lv) - 1)
}

func (a *mArena) alloc() MRef {
	if k := len(a.free) - 1; k >= 0 {
		r := a.free[k]
		a.free = a.free[:k]
		return r
	}
	a.lv = append(a.lv, 0)
	a.ch = append(a.ch, [4]MRef{})
	a.wt = append(a.wt, [4]*cn.Value{})
	return MRef(len(a.lv) - 1)
}

// scrub clears a dead slot before it goes back on the free list (see
// Package.sweepV), so a stale index fails loudly (nil weight dereference)
// instead of silently reading a recycled node.
func (a *vArena) scrub(r VRef) {
	a.lv[r] = -1
	a.ch[r] = [2]VRef{}
	a.wt[r] = [2]*cn.Value{}
}

func (a *mArena) scrub(r MRef) {
	a.lv[r] = -1
	a.ch[r] = [4]MRef{}
	a.wt[r] = [4]*cn.Value{}
}

// slots returns the arena's slot count including the terminal (the bound for
// mark bitsets).
func (a *vArena) slots() int { return len(a.lv) }
func (a *mArena) slots() int { return len(a.lv) }

// Hot accessors.  These are the only way node fields are read; they inline
// to two or three indexed loads.

// vE returns child i (0..1) of vector node n.
func (p *Package) vE(n VRef, i int) VEdge {
	return VEdge{W: p.vA.wt[n][i], N: p.vA.ch[n][i]}
}

// mE returns child i (row*2+col) of matrix node n.
func (p *Package) mE(n MRef, i int) MEdge {
	return MEdge{W: p.mA.wt[n][i], N: p.mA.ch[n][i]}
}

// vLv returns the level of vector node n (undefined for the terminal).
func (p *Package) vLv(n VRef) int { return int(p.vA.lv[n]) }

// mLv returns the level of matrix node n.
func (p *Package) mLv(n MRef) int { return int(p.mA.lv[n]) }

// ArenaStats reports the arena populations, for tests and capacity
// inspection: Slots counts allocated slots (excluding the terminal), Free
// how many of them sit on the free list awaiting reuse.
type ArenaStats struct {
	VSlots, VFree int
	MSlots, MFree int
}

// Arena returns the current arena populations.
func (p *Package) Arena() ArenaStats {
	return ArenaStats{
		VSlots: p.vA.slots() - 1, VFree: len(p.vA.free),
		MSlots: p.mA.slots() - 1, MFree: len(p.mA.free),
	}
}
