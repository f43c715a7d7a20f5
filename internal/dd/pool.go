package dd

import (
	"context"
	"sync"
	"time"

	"qcec/internal/cn"
	"qcec/internal/resource"
)

// Warm-package pooling.  Creating a Package is cheap since the lazy compute
// tables (PR 2), but the first job on a fresh package still pays to intern
// every distinct edge weight, grow the compute tables to working size, and
// build every distinct gate DD.  A long-running service (internal/server)
// checks thousands of jobs over the same few gate alphabets, so Reset +
// Pool let it keep those warm across jobs instead of rebuilding them per
// request.

// Reset returns the package to a like-new state for the next job while
// keeping what is expensive to rebuild:
//
//   - kept: the interned weight table (cn.Table values stay valid — gate
//     keys hold weight IDs), the gate registry with its gate DDs (re-rooted
//     by the collection below), the grown compute-table and unique-table
//     capacity, the identity chain, and the arena slabs themselves — dead
//     slots go onto the free lists and the backing arrays are recycled in
//     place, so a pooled worker package re-allocates nothing on its next
//     job;
//   - cleared: all nodes unreachable from the kept roots, every compute-table
//     entry (by a generation bump, O(1)), and all statistics counters, so the
//     next job's Snapshot reports only its own work;
//   - cleared, so per-job control state can never leak across jobs: the node
//     limit, the operation deadline, the cancellation hook, the memory
//     watchdog's pressure hook and last-seen epoch, and the fault injector
//     (re-copied from the process-wide default, exactly as New does).
//
// Reset must be called by the package's owning goroutine, like every other
// method; a Pool serializes ownership handover (Lease, Release).
func (p *Package) Reset() {
	// Per-job control state first: nothing below may observe a stale hook.
	p.nodeLimit = 0
	p.deadline = time.Time{}
	p.cancel = nil
	p.pressure = nil
	p.pressureSeen = 0
	p.allocCount = 0
	if box, ok := defaultInjector.Load().(injectorBox); ok {
		p.faults = box.fi
	} else {
		p.faults = nil
	}

	// Restore the collection floor a previous job may have raised, then
	// collect everything not reachable from the warm roots.  GC keeps the
	// gate registry and identity chain live, invalidates the compute tables
	// without touching their arrays, and leaves the collection trigger at
	// the floor unless the warm roots alone outgrow it.
	p.gcFloor = DefaultGCThreshold
	p.GC(nil, nil)

	// Zero the counters after the collection so the reset's own GC does not
	// appear in the next job's statistics.
	p.nodesCreated = 0
	p.gcRuns = 0
	p.gcReclaimed = 0
	p.cacheHits, p.cacheMisses = 0, 0
	p.uniqueLookups, p.uniqueHits = 0, 0
	p.gateHits, p.gateMisses, p.gateFlushes = 0, 0, 0
	p.applyCalls, p.applyDiag, p.applyPerm, p.applyGenericCt = 0, 0, 0, 0
	p.applyHits, p.applyMisses = 0, 0
	p.pressureGCs = 0
	p.faultEvents = 0
	p.CN.ResetStats()
	p.updateOccupancy()
}

// poolKey buckets pooled packages: a package is only reusable for a job on
// the same register size and weight tolerance.
type poolKey struct {
	n   int
	tol float64
}

// poolMaxWeights and poolMaxSlots bound what a pooled package may carry
// into its next job.  Reset keeps the interned weights and never shrinks the
// arena slabs, so without a bound a long-lived package only ever grows: the
// weight table keeps every value any job interned, and a package that once
// held a large live set would sweep its big arena (see gcSweepShare) and
// probe its big tables in every later small job.  Release drops a package
// past either bound, and the next Lease starts fresh.  Both sit far above what
// hundreds of routed 5-qubit checks accumulate (about 46k weights after
// 160 distinct pairs, arenas near the collection floor); the slot bound is
// twice the simulation stage's floor (2^18 nodes, see core), so a package
// whose stimuli filled the arena up to that floor stays poolable.
const (
	poolMaxWeights = 1 << 18
	poolMaxSlots   = 1 << 19 // vector plus matrix arena slots
)

// DefaultPoolPerBucket bounds how many idle packages a Pool retains per
// (qubits, tolerance) bucket.  Idle packages pin their warm gate registries and
// compute-table arrays, so the bound is the pool's memory ceiling; a serving
// deployment sizes it to its worker count.
const DefaultPoolPerBucket = 8

// Pool is a bounded free list of warm Packages, safe for concurrent use.
// Lease hands out exclusive ownership (the Package itself remains
// single-goroutine); Release resets the package and, if the bucket has
// room, retains it for the next Lease.  Packages whose state is suspect —
// after a recovered panic under fault injection, say — are dropped instead
// and counted as forgotten.
type Pool struct {
	mu        sync.Mutex
	perBucket int
	idle      map[poolKey][]*Package

	gets, reuses, puts, discards, forgotten uint64
}

// PoolStats is a snapshot of a Pool's activity.
type PoolStats struct {
	Gets      uint64 // packages leased
	Reuses    uint64 // of those, served from the free list (warm)
	Puts      uint64 // packages released back
	Discards  uint64 // releases dropped: bucket full, or the package outgrew the pool's bounds
	Forgotten uint64 // suspect packages dropped by Release(true)
	Idle      int    // packages currently pooled across all buckets
}

// NewPool creates a pool retaining up to perBucket idle packages per
// (qubits, tolerance) bucket (<= 0 selects DefaultPoolPerBucket).
func NewPool(perBucket int) *Pool {
	if perBucket <= 0 {
		perBucket = DefaultPoolPerBucket
	}
	return &Pool{perBucket: perBucket, idle: make(map[poolKey][]*Package)}
}

// Lease checks out a package for one job on n qubits at weight tolerance
// tol (0 = cn.DefaultTolerance): a warm pooled one when its bucket has one,
// a fresh one otherwise, and always a fresh one from a nil Pool.  The lease
// wires the package to ctx, which may be nil: ctx's cancellation reaches
// inside long DD operations as a *LimitError panic with Cancelled set, and
// a memory watchdog carried by ctx (resource.FromContext) forces a
// collection at the package's next MaybeGC after each soft trip and samples
// its node occupancy.  The caller owns the package exclusively until it
// calls Release.
func (pl *Pool) Lease(ctx context.Context, n int, tol float64) *Package {
	if tol == 0 {
		tol = cn.DefaultTolerance
	}
	var p *Package
	if pl != nil {
		p = pl.get(n, tol)
	} else {
		p = New(n, tol)
	}
	p.pool = pl
	if ctx != nil {
		p.setCancel(func() bool { return ctx.Err() != nil })
	}
	if w := resource.FromContext(ctx); w != nil {
		p.setPressure(w.Epoch)
		p.removeGauge = w.AddGauge(p.occupancy.Load)
	}
	return p
}

// Release ends the lease and returns the package's statistics, snapshotted
// before anything is reset.  It unregisters the package from the watchdog
// and hands it back to its pool (see put).  fault reports that the caller
// recovered a genuine panic on the package — anything but a *LimitError —
// after which its internal state (an injected non-finite weight in the
// interning table, say) can no longer be trusted: the package is then
// dropped and counted in PoolStats.Forgotten.  Neither the package nor any
// edge obtained from it may be used afterwards.
func (p *Package) Release(fault bool) Stats {
	st := p.Snapshot()
	if p.removeGauge != nil {
		p.removeGauge()
	}
	pl := p.pool
	p.pool, p.removeGauge = nil, nil
	switch {
	case pl == nil:
	case fault:
		pl.forget()
	default:
		pl.put(p)
	}
	return st
}

// get returns a pooled package for the bucket, or a fresh one.
func (pl *Pool) get(n int, tol float64) *Package {
	k := poolKey{n: n, tol: tol}
	pl.mu.Lock()
	pl.gets++
	if s := pl.idle[k]; len(s) > 0 {
		p := s[len(s)-1]
		s[len(s)-1] = nil
		pl.idle[k] = s[:len(s)-1]
		pl.reuses++
		pl.mu.Unlock()
		return p
	}
	pl.mu.Unlock()
	return New(n, tol)
}

// put resets the package and returns it to its bucket.  The package is
// dropped instead (the Go GC reclaims it) when the bucket is full, or when
// its interned weights or arena slots exceed the pool's bounds
// (poolMaxWeights, poolMaxSlots).
func (pl *Pool) put(p *Package) {
	// Reset never drops weights or shrinks the slabs, so an outgrown
	// package is dropped without paying for it.
	keep := p.CN.Size() <= poolMaxWeights && p.vA.slots()+p.mA.slots() <= poolMaxSlots
	if keep {
		// Reset outside the lock: its collection — a mark over the warm
		// gate registry, a sweep over the arena slabs and a rebuild of the
		// unique tables, all linear in what the job left behind — is the
		// expensive part, and it only touches p, which the releasing
		// caller still owns.
		p.Reset()
	}
	k := poolKey{n: p.n, tol: p.CN.Tolerance()}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.puts++
	if !keep || len(pl.idle[k]) >= pl.perBucket {
		pl.discards++
		return
	}
	pl.idle[k] = append(pl.idle[k], p)
}

// forget records a leased package dropped after a genuine panic.
func (pl *Pool) forget() {
	pl.mu.Lock()
	pl.forgotten++
	pl.mu.Unlock()
}

// Stats returns a snapshot of the pool's activity.
func (pl *Pool) Stats() PoolStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	idle := 0
	for _, s := range pl.idle {
		idle += len(s)
	}
	return PoolStats{
		Gets:      pl.gets,
		Reuses:    pl.reuses,
		Puts:      pl.puts,
		Discards:  pl.discards,
		Forgotten: pl.forgotten,
		Idle:      idle,
	}
}
