package dd

// Garbage collection.  The unique tables grow monotonically as operations
// create nodes; long simulations and equivalence checks therefore
// periodically collect nodes that are no longer reachable from the caller's
// live roots.  Collection marks the live slots, then sweeps each arena in
// index order: survivors are re-interned into the emptied unique table
// (capacity kept), every other slot is scrubbed and listed free.  It also
// invalidates the compute tables, because a cached result pointing at a
// collected slot would break canonicity: the slot may be reused for a
// functionally different node while the stale cache entry resurrects the
// old index.
//
// MaybeGC paces the collections to the live set (see gcTrigger), so a
// package's arena, unique tables and compute tables stay near twice what
// its caller actually holds instead of filling with dead nodes between
// rare collections.

// markBits is a plain bitset sized to an arena's slot count — the arena
// makes reachability marking an indexed bit flip instead of a map insert.
type markBits []uint64

func newMarkBits(slots int) markBits { return make(markBits, (slots+63)/64) }

func (b markBits) set(i uint32) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

func (b markBits) has(i uint32) bool { return b[i>>6]&(uint64(1)<<(i&63)) != 0 }

// GC removes all nodes not reachable from the given roots (the identity
// chain is always retained) and invalidates the compute tables.  The gate
// registry's DDs are re-rooted — marked live so they stay canonical across
// the collection — unless the registry has outgrown gateRegistryLimit, in
// which case it is flushed and rebuilt on demand.  Freed slots go onto the
// arena free lists for reuse, lowest index first, and the unique tables are
// rebuilt from the survivors; both depend only on which slots survive, so a
// collection leaves the same layout however the package got there.  It
// returns the number of nodes removed.
func (p *Package) GC(rootsV []VEdge, rootsM []MEdge) int {
	return p.collect(rootsV, rootsM, false)
}

// collect is GC, plus the one rule for flushing the gate registry: a
// collection flushes it when it has outgrown gateRegistryLimit or when
// flush is set (a collection forced by memory pressure).  Flushing is safe
// only here, because invalidateComputeTables below empties the apply tables
// that interpret the freed ids.
func (p *Package) collect(rootsV []VEdge, rootsM []MEdge, flush bool) int {
	markedV := newMarkBits(p.vA.slots())
	markedM := newMarkBits(p.mA.slots())
	markedV.set(0)
	markedM.set(0)

	var markV func(n VRef)
	markV = func(n VRef) {
		if !markedV.set(uint32(n)) {
			return
		}
		markV(p.vA.ch[n][0])
		markV(p.vA.ch[n][1])
	}
	var markM func(n MRef)
	markM = func(n MRef) {
		if !markedM.set(uint32(n)) {
			return
		}
		for i := 0; i < 4; i++ {
			markM(p.mA.ch[n][i])
		}
	}

	for _, r := range rootsV {
		markV(r.N)
	}
	for _, r := range rootsM {
		markM(r.N)
	}
	for _, id := range p.idents {
		markM(id.N)
	}
	if flush || len(p.gateIDs) > gateRegistryLimit {
		p.flushGates()
	}
	for _, g := range p.gates {
		if g.built {
			markM(g.n)
		}
	}

	removed := p.sweepV(markedV) + p.sweepM(markedM)
	p.invalidateComputeTables()
	p.gcRuns++
	p.gcReclaimed += uint64(removed)
	p.gcLive = p.NodeCount()
	p.updateOccupancy()
	return removed
}

// gcSweepShare bounds the sweep's cost per allocation: MaybeGC never
// collects before the population reaches 1/gcSweepShare of the arena slot
// count, so each sweep (which visits every slot) is paid for by at least
// that many allocations since the previous one — even when the arena was
// grown by an earlier, larger live set and now holds mostly free slots.
const gcSweepShare = 4

// gcTrigger returns the unique-table population at which MaybeGC collects:
// the largest of the floor (gcFloor), twice the nodes that survived the
// last collection, and the arena slot count divided by gcSweepShare.  The
// doubling lets a genuinely large working set grow without thrashing, and
// the trigger falls back to the floor as soon as a collection finds the
// live set small again.  A floor of 1 switches the pacing off: every
// MaybeGC collects, which is what the collection stress tests rely on.
func (p *Package) gcTrigger() int {
	if p.gcFloor == 1 {
		return 1
	}
	slots := p.vA.slots() + p.mA.slots() - 2 // excluding the two terminals
	return max(p.gcFloor, 2*p.gcLive, slots/gcSweepShare)
}

// MaybeGC runs GC when the unique-table population reaches gcTrigger, or
// unconditionally when the memory watchdog has bumped its pressure epoch
// since the last check (see setPressure) — a pressure-forced collection
// also flushes the gate registry, whose DDs are rebuildable ballast.  It
// reports whether a collection ran.
func (p *Package) MaybeGC(rootsV []VEdge, rootsM []MEdge) bool {
	forced := false
	if p.pressure != nil {
		if e := p.pressure(); e != p.pressureSeen {
			p.pressureSeen = e
			forced = true
		}
	}
	if !forced && p.NodeCount() < p.gcTrigger() {
		return false
	}
	if forced {
		p.pressureGCs++
	}
	p.collect(rootsV, rootsM, forced)
	return true
}

// GCRuns returns how many collections have been performed.
func (p *Package) GCRuns() int { return p.gcRuns }

// SetGCThreshold sets the floor of the collection trigger (see gcTrigger);
// values < 1 are clamped to 1, and a floor of 1 collects at every MaybeGC.
// The simulation stage raises its packages' floor (its garbage is the
// compute-table state the next run replays); stress tests lower it to 1.
func (p *Package) SetGCThreshold(n int) {
	if n < 1 {
		n = 1
	}
	p.gcFloor = n
}
