// Package dd implements quantum multiple-valued decision diagrams (QMDDs)
// for representing quantum states (vector DDs) and unitaries (matrix DDs).
//
// This is the substrate both sides of the paper run on: the simulator
// performs matrix-vector multiplications on it (cheap — the "power of
// simulation"), and the complete equivalence-checking routine performs
// matrix-matrix multiplications on it (expensive — the state of the art the
// paper improves upon).
//
// Design notes, mirroring the JKU/MQT DD package the paper builds on:
//
//   - Edge weights are interned in a cn.Table, so numerically equal weights
//     are identical pointers.
//   - Nodes live in per-package arenas (growable struct-of-arrays slabs, see
//     arena.go) and are addressed by 32-bit indices.  Each node kind has one
//     unique table, an open-addressing array of those indices probed
//     against the slabs (see unique.go), and nodes are normalized with the
//     largest-magnitude rule (magnitudes tied within the weight tolerance
//     break towards the lowest edge index), so two DDs represent the same
//     function if and only if their root edges compare equal as (node
//     index, weight pointer) pairs.  Neither the unique tables nor the
//     complex table is a Go map: hash-consing is the hot path of the
//     complete check, and the collection rebuilds the unique tables from
//     the surviving slots instead of deleting entries (see GC).
//   - All non-zero paths visit a node at every level ("full chains"); only
//     zero edges shortcut directly to the terminal.  This keeps every binary
//     operation strictly level-synchronized.
//   - Operation results are memoized in fixed-size, overwrite-on-collision
//     compute tables, so memory use is bounded and lookups are O(1).  The
//     entries hold node refs and weight IDs, no pointers, and a collection
//     invalidates them all by bumping one generation stamp (see arith.go).
//   - Collections are paced to the live set, each node kind on its own
//     (see MaybeGC), so the arenas and tables of a check whose live DD
//     stays small stay cache-sized, while a simulation's dead vectors, its
//     cache, survive the matrix work that shares the package.
//   - Every distinct gate — its interned 2×2 matrix entries, target and
//     control masks — gets one small id in a per-package gate registry
//     (see registry.go).  The id keys the apply kernel's compute tables,
//     and the registry memoizes the gate's full-register matrix DD, so the
//     complete check builds each distinct gate once.  Unlike the compute
//     tables, the registry survives garbage collection: its DDs are marked
//     as GC roots (see GC).
//
// Concurrency: a Package (and the cn.Table it owns) is NOT safe for
// concurrent use.  Concurrent clients — the parallel simulation stage in
// internal/core and the prover portfolio in internal/portfolio — must give
// every goroutine its own Package and never share edges between packages.
// Cooperative cancellation across that boundary is provided by Pool.Lease,
// which wires the package a goroutine checks out to that goroutine's
// context (and by SetDeadline).
package dd

import (
	"fmt"
	"sync/atomic"
	"time"

	"qcec/internal/cn"
)

// VEdge is a weighted edge into a vector DD.  N is an arena index (see
// arena.go); N == 0 denotes the terminal, and VEdge{W: <zero>, N: 0} is the
// canonical zero vector.
type VEdge struct {
	W *cn.Value
	N VRef
}

// MEdge is a weighted edge into a matrix DD.  N == 0 denotes the terminal;
// MEdge{W: <zero>, N: 0} is the canonical zero matrix.
type MEdge struct {
	W *cn.Value
	N MRef
}

// Control describes a control qubit of a quantum operation.  When Neg is
// true, the operation fires on the |0> branch of the qubit (a "negative
// control", as used by RevLib netlists).
type Control struct {
	Qubit int
	Neg   bool
}

// Package owns the unique tables, compute tables and complex table for DDs on
// a fixed number of qubits.  It is not safe for concurrent use.
type Package struct {
	n  int
	CN *cn.Table

	// vA and mA are the node arenas (see arena.go); vU and mU are the
	// unique tables over them (see unique.go).  An index doubles as the
	// node's id for compute-table hashing and commutative operand ordering:
	// it is a stable total order over live nodes, and index reuse after a
	// sweep can never alias a cached entry because every collection
	// invalidates the compute tables before slots return to the free list.
	vA vArena
	mA mArena
	vU refTable
	mU refTable
	// nodesCreated is the per-job counter behind Stats.NodesCreated; Reset
	// zeroes it so a pooled package reports only its current job's work.
	nodesCreated uint64

	idents []MEdge // idents[k] = identity on the k lowest levels

	// Compute tables (zero values: lazily allocated on first insert).  gen
	// is their shared generation: an entry is valid only while its stamp
	// equals gen, and every collection bumps it (see
	// invalidateComputeTables).  It starts at 1, so zeroed slots never match.
	gen  uint32
	addV ctab[addVEntry]
	addM ctab[addMEntry]
	mv   ctab[mvEntry]
	mm   ctab[mmEntry]
	ip   ctab[ipEntry]
	ct   ctab[ctEntry]
	ap   ctab[apEntry]
	apb  ctab[apbEntry]

	// gateIDs and gates are the gate registry (see registry.go): gateIDs
	// assigns each distinct gateKey a small id, and gates[id-1] holds that
	// gate's matrix DD once GateDD has built it.  gateEpoch counts registry
	// flushes, so prepared gates notice that their ids were reassigned.
	gateIDs   map[gateKey]uint32
	gates     []gateSlot
	gateBuilt int
	gateEpoch uint64

	applyCalls     uint64
	applyDiag      uint64
	applyPerm      uint64
	applyGenericCt uint64
	applyHits      uint64
	applyMisses    uint64

	// gcFloor and gcLive pace the collections, indexed by gcKind: MaybeGC
	// collects once the vector or the matrix population reaches the largest
	// of its kind's floor, twice its kind's survivors of the last collection
	// (gcLive) and a fixed share of the arena slot count (see gcTrigger).
	// The floors are VectorGCThreshold and DefaultGCThreshold, or
	// SetGCThreshold's override.
	gcFloor [2]int
	gcLive  [2]int
	gcRuns  int

	// nodeLimit, when positive, makes node creation panic with a
	// *LimitError once the unique tables exceed it.  Long-running clients
	// (the equivalence checker) recover the panic and turn it into a
	// timeout-class verdict; this bounds time and memory even inside a
	// single huge multiplication, where per-gate deadline checks cannot
	// reach.
	nodeLimit int
	// deadline, when set, makes a DD operation panic with a *LimitError
	// once the wall clock passes it (checked every few thousand node
	// allocations and compute-table misses, so the overhead is negligible).
	deadline time.Time
	// cancel, when set, is polled at the same checkpoint as the deadline;
	// returning true panics with a *LimitError whose Cancelled field is
	// set.  This is how context cancellation reaches inside a single
	// long-running DD operation (see Pool.Lease).
	cancel func() bool
	// steps counts the checkpoint's events: node allocations and
	// compute-table misses (see checkpoint).
	steps uint64

	// pressure, when set, is polled at GC decision points (MaybeGC): a value
	// different from pressureSeen means the memory watchdog bumped its
	// pressure epoch, and the next MaybeGC collects unconditionally and
	// flushes the gate registry.  The hook must be safe to call from this
	// package's owning goroutine while the watchdog writes the epoch (an
	// atomic load — see resource.Watchdog.Epoch).
	pressure     func() uint64
	pressureSeen uint64
	pressureGCs  uint64

	// occupancy mirrors the unique-table population for cross-goroutine
	// observers (the memory watchdog samples it as the lease's gauge).  It
	// is the only Package field written by the owner and read by another
	// goroutine, hence the atomic; it is refreshed at the checkpoint and
	// after collections, so it lags the true population by at most a few
	// hundred nodes.
	occupancy atomic.Int64

	// pool and removeGauge belong to the current lease (see Pool.Lease):
	// where Release hands the package back, and how it unregisters the
	// occupancy gauge from the memory watchdog.
	pool        *Pool
	removeGauge func()

	// faults is the fault-injection seam: when non-nil, BeforeApply runs at
	// every gate-application entry point with a per-package ordinal.  It is
	// nil in production (dd_test and internal/faultinject install injectors);
	// the field is copied from the process-wide default at New, so installing
	// an injector before worker packages are created is race-free.
	faults      FaultInjector
	faultEvents uint64

	cacheHits, cacheMisses uint64

	gateHits    uint64
	gateMisses  uint64
	gateFlushes uint64

	uniqueLookups uint64
	uniqueHits    uint64
	gcReclaimed   uint64
}

// LimitError is the panic value raised when the configured node limit or
// operation deadline is exceeded; see SetNodeLimit and SetDeadline.
type LimitError struct {
	Nodes     int
	Limit     int
	Deadline  bool // true when the wall-clock deadline tripped
	Cancelled bool // true when the lease's context was cancelled
}

// Error formats the limit violation.
func (e *LimitError) Error() string {
	switch {
	case e.Cancelled:
		return fmt.Sprintf("dd: operation cancelled (%d live nodes)", e.Nodes)
	case e.Deadline:
		return fmt.Sprintf("dd: operation deadline exceeded (%d live nodes)", e.Nodes)
	}
	return fmt.Sprintf("dd: node limit exceeded (%d nodes, limit %d)", e.Nodes, e.Limit)
}

// SetNodeLimit installs (or with 0 removes) a hard bound on the live node
// population of each kind: allocating a vector node past it, or a matrix
// node past it, panics with a *LimitError at the allocation site.  Bounding
// each kind on its own lets the complete check bound its miter on a package
// that still holds a simulation's dead vectors.
func (p *Package) SetNodeLimit(n int) { p.nodeLimit = n }

// SetDeadline installs (or with the zero time removes) a wall-clock bound on
// DD operations.  Passing it panics with a *LimitError at the next
// checkpoint, which reaches even into a single long-running multiplication.
func (p *Package) SetDeadline(t time.Time) { p.deadline = t }

// setCancel installs (or with nil removes) a cooperative cancellation hook,
// polled at the checkpoint.  When the hook returns true the current DD
// operation panics with a *LimitError whose Cancelled field is set, which
// long-running clients (internal/ec, internal/core) recover and turn into a
// cancelled verdict.  Pool.Lease installs the hook of its
// context.
func (p *Package) setCancel(f func() bool) { p.cancel = f }

// checkLimit runs after every node allocation; population is the
// allocated node's kind's (see SetNodeLimit).
func (p *Package) checkLimit(population int) {
	if p.nodeLimit > 0 && population > p.nodeLimit {
		panic(&LimitError{Nodes: population, Limit: p.nodeLimit})
	}
	p.checkpoint()
}

// computeMiss counts a compute-table miss and advances the checkpoint,
// which a product that mostly re-finds existing nodes would otherwise
// rarely reach.
func (p *Package) computeMiss() {
	p.cacheMisses++
	p.checkpoint()
}

// checkpoint runs at every node allocation and compute-table miss and
// calls poll every 512 steps; it is small enough to inline into the hot
// paths.
func (p *Package) checkpoint() {
	p.steps++
	if p.steps&0x1FF == 0 {
		p.poll()
	}
}

// poll refreshes the occupancy gauge and, every 8192 steps, checks the
// deadline and the cancellation hook.
func (p *Package) poll() {
	p.updateOccupancy()
	if p.steps&0x1FFF == 0 {
		if !p.deadline.IsZero() && time.Now().After(p.deadline) {
			panic(&LimitError{Nodes: p.NodeCount(), Limit: p.nodeLimit, Deadline: true})
		}
		if p.cancel != nil && p.cancel() {
			panic(&LimitError{Nodes: p.NodeCount(), Limit: p.nodeLimit, Cancelled: true})
		}
	}
}

// setPressure installs (or with nil removes) a memory-pressure hook, polled
// at every MaybeGC decision.  When the returned epoch differs from the last
// observed one, the next MaybeGC collects unconditionally and flushes the
// gate registry — this is how the resource watchdog's soft limit reaches a
// package it must not touch directly (Package is single-goroutine).
// Pool.Lease installs the epoch of its context's watchdog.
func (p *Package) setPressure(f func() uint64) {
	p.pressure = f
	if f != nil {
		p.pressureSeen = f()
	}
}

func (p *Package) updateOccupancy() {
	p.occupancy.Store(int64(p.NodeCount()))
}

// FaultInjector is the deterministic fault-injection seam used by chaos
// tests (internal/faultinject): BeforeApply runs at every gate-application
// entry point (GateDD, ApplyGateV, ApplyPrepared) with the package's
// 1-based application ordinal, and may panic, allocate, sleep or corrupt
// weights to exercise the recovery paths.  Production code never installs
// one, so the seam costs a nil check per gate.
type FaultInjector interface {
	BeforeApply(p *Package, nth uint64)
}

// defaultInjector holds the process-wide injector copied into every Package
// at New.  atomic.Value cannot store a bare nil interface, so it stores a
// one-field box.
var defaultInjector atomic.Value

type injectorBox struct{ fi FaultInjector }

// SetDefaultFaultInjector installs (or with nil removes) the process-wide
// fault injector that every subsequently created Package copies at New.
// Install it before the checking run spawns worker goroutines; already-live
// packages are unaffected.
func SetDefaultFaultInjector(fi FaultInjector) {
	defaultInjector.Store(injectorBox{fi: fi})
}

// SetFaultInjector overrides the fault injector for this package only.
func (p *Package) SetFaultInjector(fi FaultInjector) { p.faults = fi }

func (p *Package) faultPoint() {
	if p.faults == nil {
		return
	}
	p.faultEvents++
	p.faults.BeforeApply(p, p.faultEvents)
}

// DefaultGCThreshold is the collection floor of matrix nodes: the smallest
// matrix population at which MaybeGC collects (see gcTrigger).  It is small
// enough that a check whose live DD is a few hundred nodes — the
// alternating miter of an equivalent pair stays near the identity — keeps
// its arena, unique tables and compute tables cache-resident, and large
// enough that the mark and sweep stay a small share of the work.
const DefaultGCThreshold = 1 << 13

// VectorGCThreshold is the collection floor of vector nodes, 32 times
// DefaultGCThreshold.  A simulation's dead vectors are its cache: in the
// flow's simulation stage G' replays G's gates on the same stimulus, and
// later stimuli revisit the same sub-states, so the compute-table entries
// over the last run's garbage keep hitting until a collection invalidates
// them.  At the matrix floor a 10-14 qubit Clifford stage collects every
// few thousand nodes and creates about 4.6 times the nodes; at this one
// the stage of a typical check never collects, while the complete check,
// whose garbage is rarely revisited, keeps the small matrix floor and its
// cache-sized tables.
const VectorGCThreshold = 1 << 18

// MaxQubits is the largest supported register size (basis-state indices are
// addressed with uint64).
const MaxQubits = 64

// New creates a DD package for n qubits with the given weight tolerance.
func New(n int, tol float64) *Package {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("dd: unsupported qubit count %d", n))
	}
	p := &Package{
		n:       n,
		CN:      cn.NewTable(tol),
		gen:     1,
		gcFloor: [2]int{VectorGCThreshold, DefaultGCThreshold},
		gateIDs: make(map[gateKey]uint32, 64),
	}
	p.vA.init()
	p.mA.init()
	p.vU.init()
	p.mU.init()
	if box, ok := defaultInjector.Load().(injectorBox); ok {
		p.faults = box.fi
	}
	p.idents = []MEdge{{W: p.CN.One, N: 0}}
	return p
}

// NewDefault creates a DD package for n qubits with the default tolerance.
func NewDefault(n int) *Package { return New(n, cn.DefaultTolerance) }

// Qubits returns the register size of the package.
func (p *Package) Qubits() int { return p.n }

// NodeCount returns the current unique-table population (vector plus matrix
// nodes).
func (p *Package) NodeCount() int { return p.vU.n + p.mU.n }

// MatrixNodeCount returns the current matrix-node population.
func (p *Package) MatrixNodeCount() int { return p.mU.n }

// Stats is a snapshot of the package's internal activity, exposed for the
// benchmark harness, the CLI's -stats flag and for performance debugging.
//
// The first group are gauges (current populations); the rest are
// monotonically increasing counters.  CacheHits/CacheMisses cover the
// operation compute tables (add, mul, inner product, ...); the unique-table
// counters measure hash-consing effectiveness (a "hit" is a makeNode call
// that found a structurally identical node already interned, a miss is an
// insertion; probe lengths and slot collisions are not counted); the gate
// counters cover the gate registry's matrix DDs.
type Stats struct {
	VectorNodes   int
	MatrixNodes   int
	WeightsStored int
	GateCacheSize int // gate DDs held by the gate registry
	NodesCreated  uint64
	GCRuns        int
	GCReclaimed   uint64 // total nodes removed across all collections
	CacheHits     uint64 // compute-table hits
	CacheMisses   uint64 // compute-table misses
	UniqueLookups uint64 // unique-table probes by makeVNode/makeMNode
	UniqueHits    uint64 // probes answered by an existing node
	WeightLookups int64  // cn.Table lookups
	WeightHits    int64  // cn.Table lookups answered by an existing value
	GateHits      uint64 // GateDD calls answered by a registered gate DD
	GateMisses    uint64 // GateDD calls that built the gate DD bottom-up
	GateFlushes   uint64 // gate-registry flushes (oversized or pressure-forced GCs)
	ApplyCalls    uint64 // direct kernel gate applications (ApplyGateV)
	ApplyDiag     uint64 // of those, diagonal fast-path applications
	ApplyPerm     uint64 // of those, permutation (cofactor-swap) applications
	ApplyGeneric  uint64 // of those, dense 2x2 applications
	ApplyHits     uint64 // apply compute-table hits
	ApplyMisses   uint64 // apply compute-table misses
	PressureGCs   uint64 // collections forced by the memory watchdog's pressure epoch
	FaultEvents   uint64 // fault-injection callbacks fired (0 outside chaos tests)
}

// Snapshot returns current package statistics.
func (p *Package) Snapshot() Stats {
	wl, wh := p.CN.Stats()
	return Stats{
		VectorNodes:   p.vU.n,
		MatrixNodes:   p.mU.n,
		WeightsStored: p.CN.Size(),
		GateCacheSize: p.gateBuilt,
		NodesCreated:  p.nodesCreated,
		GCRuns:        p.gcRuns,
		GCReclaimed:   p.gcReclaimed,
		CacheHits:     p.cacheHits,
		CacheMisses:   p.cacheMisses,
		UniqueLookups: p.uniqueLookups,
		UniqueHits:    p.uniqueHits,
		WeightLookups: wl,
		WeightHits:    wh,
		GateHits:      p.gateHits,
		GateMisses:    p.gateMisses,
		GateFlushes:   p.gateFlushes,
		ApplyCalls:    p.applyCalls,
		ApplyDiag:     p.applyDiag,
		ApplyPerm:     p.applyPerm,
		ApplyGeneric:  p.applyGenericCt,
		ApplyHits:     p.applyHits,
		ApplyMisses:   p.applyMisses,
		PressureGCs:   p.pressureGCs,
		FaultEvents:   p.faultEvents,
	}
}

// Add accumulates another snapshot into s.  Counters sum exactly; the
// gauges (the point-in-time node, weight and cache populations) take the
// maximum instead, mirroring resource.Stats.Add's peak semantics.  Summing
// gauges across the per-worker packages of a parallel simulation stage — or
// across the batch items of a serving aggregate — multiplies a steady-state
// population by the worker count and reports a footprint nothing ever had;
// the peak is the number /metrics, the harness CSVs and `qcec -stats` can
// honestly aggregate.
func (s *Stats) Add(o Stats) {
	s.VectorNodes = max(s.VectorNodes, o.VectorNodes)
	s.MatrixNodes = max(s.MatrixNodes, o.MatrixNodes)
	s.WeightsStored = max(s.WeightsStored, o.WeightsStored)
	s.GateCacheSize = max(s.GateCacheSize, o.GateCacheSize)
	s.NodesCreated += o.NodesCreated
	s.GCRuns += o.GCRuns
	s.GCReclaimed += o.GCReclaimed
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.UniqueLookups += o.UniqueLookups
	s.UniqueHits += o.UniqueHits
	s.WeightLookups += o.WeightLookups
	s.WeightHits += o.WeightHits
	s.GateHits += o.GateHits
	s.GateMisses += o.GateMisses
	s.GateFlushes += o.GateFlushes
	s.ApplyCalls += o.ApplyCalls
	s.ApplyDiag += o.ApplyDiag
	s.ApplyPerm += o.ApplyPerm
	s.ApplyGeneric += o.ApplyGeneric
	s.ApplyHits += o.ApplyHits
	s.ApplyMisses += o.ApplyMisses
	s.PressureGCs += o.PressureGCs
	s.FaultEvents += o.FaultEvents
}

// Since returns the activity between an earlier snapshot of the same
// package and s: the counters' differences, and s's gauges.  Stages that
// share one package (the flow's simulation stage and complete check) each
// account their own work this way, so summing their statistics counts
// nothing twice.
func (s Stats) Since(before Stats) Stats {
	d := s
	d.NodesCreated -= before.NodesCreated
	d.GCRuns -= before.GCRuns
	d.GCReclaimed -= before.GCReclaimed
	d.CacheHits -= before.CacheHits
	d.CacheMisses -= before.CacheMisses
	d.UniqueLookups -= before.UniqueLookups
	d.UniqueHits -= before.UniqueHits
	d.WeightLookups -= before.WeightLookups
	d.WeightHits -= before.WeightHits
	d.GateHits -= before.GateHits
	d.GateMisses -= before.GateMisses
	d.GateFlushes -= before.GateFlushes
	d.ApplyCalls -= before.ApplyCalls
	d.ApplyDiag -= before.ApplyDiag
	d.ApplyPerm -= before.ApplyPerm
	d.ApplyGeneric -= before.ApplyGeneric
	d.ApplyHits -= before.ApplyHits
	d.ApplyMisses -= before.ApplyMisses
	d.PressureGCs -= before.PressureGCs
	d.FaultEvents -= before.FaultEvents
	return d
}

// Lookups returns the compute-table plus apply-table lookups, hits and
// misses alike: the DD work unit core.Check's finish-by-simulation rule
// prices simulation columns and the complete check in.  Unlike wall time it
// repeats exactly for a given package history.
func (s Stats) Lookups() uint64 {
	return s.CacheHits + s.CacheMisses + s.ApplyHits + s.ApplyMisses
}

// Lookups is Stats.Lookups of the package's current job, without taking a
// full snapshot: the complete check reads it after every gate.
func (p *Package) Lookups() uint64 {
	return p.cacheHits + p.cacheMisses + p.applyHits + p.applyMisses
}

// GateHitRate returns the fraction of GateDD calls answered by the gate
// registry (0 when no calls were made).
func (s Stats) GateHitRate() float64 {
	total := s.GateHits + s.GateMisses
	if total == 0 {
		return 0
	}
	return float64(s.GateHits) / float64(total)
}

// ApplyHitRate returns the fraction of apply compute-table probes answered
// from the table (0 when the kernel was never used).
func (s Stats) ApplyHitRate() float64 {
	total := s.ApplyHits + s.ApplyMisses
	if total == 0 {
		return 0
	}
	return float64(s.ApplyHits) / float64(total)
}

// ComputeHitRate returns the fraction of compute-table probes that hit.
func (s Stats) ComputeHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// UniqueHitRate returns the fraction of unique-table probes answered by an
// already-interned node.
func (s Stats) UniqueHitRate() float64 {
	if s.UniqueLookups == 0 {
		return 0
	}
	return float64(s.UniqueHits) / float64(s.UniqueLookups)
}

// VZero returns the canonical zero vector edge.
func (p *Package) VZero() VEdge { return VEdge{W: p.CN.Zero, N: 0} }

// MZero returns the canonical zero matrix edge.
func (p *Package) MZero() MEdge { return MEdge{W: p.CN.Zero, N: 0} }

// VTerminal returns a terminal vector edge carrying the given scalar.
func (p *Package) VTerminal(c complex128) VEdge {
	return VEdge{W: p.CN.Lookup(c), N: 0}
}

// MTerminal returns a terminal matrix edge carrying the given scalar.
func (p *Package) MTerminal(c complex128) MEdge {
	return MEdge{W: p.CN.Lookup(c), N: 0}
}

// makeVNode builds the canonical, normalized node for the given successors
// and returns it as an edge whose weight carries the normalization factor.
// The largest-magnitude pick uses the weight tolerance as a tie band:
// magnitudes that agree within it break towards the lowest index, so the
// choice is stable when different computation orders of the same function
// produce floating-point noise around an exact tie.
func (p *Package) makeVNode(v int, e0, e1 VEdge) VEdge {
	zero := p.CN.Zero
	if e0.W == zero && e1.W == zero {
		return p.VZero()
	}
	k := 0
	if a0, a1 := e0.W.Abs2(), e1.W.Abs2(); a1-a0 > p.CN.Tolerance()*(a0+a1) {
		k = 1
	}
	var top *cn.Value
	if k == 0 {
		top = e0.W
		e0.W = p.CN.One
		if e1.W != zero {
			e1.W = p.CN.Div(e1.W, top)
		}
	} else {
		top = e1.W
		e1.W = p.CN.One
		if e0.W != zero {
			e0.W = p.CN.Div(e0.W, top)
		}
	}
	lv, w, c := int8(v), [2]*cn.Value{e0.W, e1.W}, [2]VRef{e0.N, e1.N}
	h := vHash(lv, &w, &c)
	p.uniqueLookups++
	node := p.vFind(h, lv, &w, &c)
	if node != 0 {
		p.uniqueHits++
	} else {
		node = p.vA.alloc()
		p.vA.lv[node] = lv
		p.vA.ch[node] = c
		p.vA.wt[node] = w
		if p.vU.full() {
			p.vU.grow(func(r uint32) uint64 { return p.vSig(VRef(r)) })
		}
		p.vU.place(h, uint32(node))
		p.nodesCreated++
		p.checkLimit(p.vU.n)
	}
	return VEdge{W: top, N: node}
}

// makeMNode is the matrix counterpart of makeVNode (including the
// tolerance tie band on the largest-magnitude pick).
func (p *Package) makeMNode(v int, e [4]MEdge) MEdge {
	zero := p.CN.Zero
	k := -1
	var max float64
	for i := 0; i < 4; i++ {
		if e[i].W == zero {
			continue
		}
		if a := e[i].W.Abs2(); k < 0 || a-max > p.CN.Tolerance()*(a+max) {
			k, max = i, a
		}
	}
	if k < 0 {
		return p.MZero()
	}
	top := e[k].W
	for i := 0; i < 4; i++ {
		switch {
		case i == k:
			e[i].W = p.CN.One
		case e[i].W != zero:
			e[i].W = p.CN.Div(e[i].W, top)
		}
	}
	lv := int8(v)
	w := [4]*cn.Value{e[0].W, e[1].W, e[2].W, e[3].W}
	c := [4]MRef{e[0].N, e[1].N, e[2].N, e[3].N}
	h := mHash(lv, &w, &c)
	p.uniqueLookups++
	node := p.mFind(h, lv, &w, &c)
	if node != 0 {
		p.uniqueHits++
	} else {
		node = p.mA.alloc()
		p.mA.lv[node] = lv
		p.mA.ch[node] = c
		p.mA.wt[node] = w
		if p.mU.full() {
			p.mU.grow(func(r uint32) uint64 { return p.mSig(MRef(r)) })
		}
		p.mU.place(h, uint32(node))
		p.nodesCreated++
		p.checkLimit(p.mU.n)
	}
	return MEdge{W: top, N: node}
}

// scaleV multiplies an edge weight by w.
func (p *Package) scaleV(e VEdge, w *cn.Value) VEdge {
	if w == p.CN.One {
		return e
	}
	if w == p.CN.Zero || e.W == p.CN.Zero {
		return p.VZero()
	}
	return VEdge{W: p.CN.Mul(e.W, w), N: e.N}
}

// scaleM multiplies an edge weight by w.
func (p *Package) scaleM(e MEdge, w *cn.Value) MEdge {
	if w == p.CN.One {
		return e
	}
	if w == p.CN.Zero || e.W == p.CN.Zero {
		return p.MZero()
	}
	return MEdge{W: p.CN.Mul(e.W, w), N: e.N}
}

// identUpTo returns the identity matrix DD covering the k lowest levels
// (k = 0 yields the scalar 1 terminal edge).
func (p *Package) identUpTo(k int) MEdge {
	if k > p.n {
		panic(fmt.Sprintf("dd: identity request for %d levels on %d qubits", k, p.n))
	}
	for len(p.idents) <= k {
		lvl := len(p.idents) - 1
		prev := p.idents[lvl]
		e := p.makeMNode(lvl, [4]MEdge{prev, p.MZero(), p.MZero(), prev})
		p.idents = append(p.idents, e)
	}
	return p.idents[k]
}

// Identity returns the n-qubit identity matrix DD.
func (p *Package) Identity() MEdge { return p.identUpTo(p.n) }

// IsIdentity reports whether m is the identity.  With strict=false a global
// phase factor (unit-magnitude root weight) is accepted.
func (p *Package) IsIdentity(m MEdge, strict bool) bool {
	id := p.Identity()
	if m.N != id.N {
		return false
	}
	if strict {
		return m.W == p.CN.One
	}
	mag := m.W.Abs()
	return mag > 1-16*p.CN.Tolerance() && mag < 1+16*p.CN.Tolerance()
}

// BasisState returns |i> as a vector DD.
func (p *Package) BasisState(i uint64) VEdge {
	if p.n < 64 && i >= uint64(1)<<uint(p.n) {
		panic(fmt.Sprintf("dd: basis state %d out of range for %d qubits", i, p.n))
	}
	e := VEdge{W: p.CN.One, N: 0}
	for z := 0; z < p.n; z++ {
		if (i>>uint(z))&1 == 0 {
			e = p.makeVNode(z, e, p.VZero())
		} else {
			e = p.makeVNode(z, p.VZero(), e)
		}
	}
	return e
}

// ZeroState returns |0...0>.
func (p *Package) ZeroState() VEdge { return p.BasisState(0) }

// buildGateDD performs the bottom-up gate-DD construction.  The caller has
// already validated target and controls.
func (p *Package) buildGateDD(u [2][2]complex128, target int, controls []Control) MEdge {
	sorted := make([]Control, len(controls))
	copy(sorted, controls)
	for i := 1; i < len(sorted); i++ { // insertion sort; control lists are tiny
		for j := i; j > 0 && sorted[j].Qubit < sorted[j-1].Qubit; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}

	em := [4]MEdge{
		p.MTerminal(u[0][0]), p.MTerminal(u[0][1]),
		p.MTerminal(u[1][0]), p.MTerminal(u[1][1]),
	}
	ci := 0
	for z := 0; z < target; z++ {
		if ci < len(sorted) && sorted[ci].Qubit == z {
			neg := sorted[ci].Neg
			for i := 0; i < 4; i++ {
				idPart := p.MZero()
				if i == 0 || i == 3 { // diagonal entries act as identity off-control
					idPart = p.identUpTo(z)
				}
				if neg {
					em[i] = p.makeMNode(z, [4]MEdge{em[i], p.MZero(), p.MZero(), idPart})
				} else {
					em[i] = p.makeMNode(z, [4]MEdge{idPart, p.MZero(), p.MZero(), em[i]})
				}
			}
			ci++
		} else {
			for i := 0; i < 4; i++ {
				em[i] = p.makeMNode(z, [4]MEdge{em[i], p.MZero(), p.MZero(), em[i]})
			}
		}
	}
	e := p.makeMNode(target, em)
	for z := target + 1; z < p.n; z++ {
		if ci < len(sorted) && sorted[ci].Qubit == z {
			if sorted[ci].Neg {
				e = p.makeMNode(z, [4]MEdge{e, p.MZero(), p.MZero(), p.identUpTo(z)})
			} else {
				e = p.makeMNode(z, [4]MEdge{p.identUpTo(z), p.MZero(), p.MZero(), e})
			}
			ci++
		} else {
			e = p.makeMNode(z, [4]MEdge{e, p.MZero(), p.MZero(), e})
		}
	}
	return e
}
