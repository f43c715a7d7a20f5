// Package resource implements the checking runtime's resilience primitives:
// a memory-budget watchdog and the typed errors the rest of the stack uses to
// report degraded-but-clean outcomes.
//
// The paper's flow is explicitly resource-bounded — run cheap simulations,
// then a complete routine "with a timeout" — and internal/ec and internal/dd
// already bound wall-clock time and DD node counts.  Nothing bounds process
// memory, though: a DD prover on an adversarial pair can exhaust the machine
// long before its node limit trips, because nodes are only one part of the
// footprint (compute tables, interned weights and Go allocator overhead are
// the rest).  The Watchdog closes that gap at the level the operating system
// actually cares about: heap bytes.
//
// A Watchdog samples runtime.ReadMemStats plus the registered DD occupancy
// gauges on a ticker and enforces two budgets:
//
//   - Soft limit: bump a pressure epoch (observed cooperatively by every
//     dd.Package leased on the run's context, see dd.Pool.Lease, forcing a
//     DD collection and cache flush at the next safe point) and trigger a Go
//     GC, so reclaimable memory is actually returned before the hard limit
//     is at stake.
//   - Hard limit: cancel the run's context with a typed *MemoryLimitError
//     cause.  Checkers observe the cancellation through their usual
//     cooperative hooks and report a Timeout-style verdict attributed to the
//     memory budget (ec.CauseMemLimit, portfolio.StopMemLimit).
//
// Concurrency: the watchdog runs on its own goroutine and never touches DD
// state directly — dd.Package is single-threaded, so the soft response is a
// pressure epoch the owning goroutine polls at its GC safe points, and the
// occupancy gauges are atomics updated by the owner.  Everything exported
// here is safe for concurrent use.
package resource

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// MemoryLimitError is the cancellation cause installed when a Watchdog's hard
// limit trips.  Checkers surface it through ec.Result.Err / core report
// fields / portfolio reports so a memory-bounded run is attributed to the
// budget, not to a generic timeout.
type MemoryLimitError struct {
	// HeapBytes is the live heap observed at the trip.
	HeapBytes uint64
	// LimitBytes is the configured hard limit.
	LimitBytes uint64
	// DDNodes is the summed DD occupancy gauge at the trip (0 when no
	// package registered a gauge).
	DDNodes int64
}

// Error formats the budget violation.
func (e *MemoryLimitError) Error() string {
	return fmt.Sprintf("resource: memory limit exceeded (heap %s, limit %s, %d DD nodes live)",
		fmtBytes(e.HeapBytes), fmtBytes(e.LimitBytes), e.DDNodes)
}

// PanicError wraps a recovered panic from an isolated component (a prover
// goroutine, a simulation worker) into an error carrying the component name
// and the stack captured at the panic site.
type PanicError struct {
	// Op names the component that panicked (e.g. "prover dd",
	// "core.sim worker 3").
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured inside the
	// recovering defer (which runs before the frames unwind, so it includes
	// the panic origin).
	Stack []byte
}

// Error formats the panic without the stack (reports keep it short; the
// stack stays available on the struct).
func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.Op, e.Value)
}

// Unwrap exposes an error panic value (e.g. *cn.NonFiniteError) to
// errors.As/Is through the wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// NewPanicError captures the current stack around a recovered value.  It must
// be called from inside the recovering deferred function so the stack still
// contains the panic origin.
func NewPanicError(op string, value any) *PanicError {
	return &PanicError{Op: op, Value: value, Stack: debug.Stack()}
}

// Config parameterizes a Watchdog.
type Config struct {
	// SoftLimit, in bytes: heap above it forces DD collections + cache
	// flushes through the pressure epoch, and a Go GC.  0 disables the soft
	// response.
	SoftLimit uint64
	// HardLimit, in bytes: heap above it cancels the run's context with a
	// *MemoryLimitError cause.  0 disables the hard response.
	HardLimit uint64
	// Interval between samples (default DefaultInterval).  Sampling calls
	// runtime.ReadMemStats, which briefly stops the world, so intervals much
	// below a millisecond are counterproductive.
	Interval time.Duration
}

// DefaultInterval is the sampling period used when Config.Interval is zero.
const DefaultInterval = 25 * time.Millisecond

// softRearmSamples is the minimum number of samples between two soft trips
// while the heap stays above the soft limit, so a large-but-legitimate
// working set does not force a DD collection on every tick.
const softRearmSamples = 8

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	return c
}

// Stats is a point-in-time snapshot of a watchdog's activity, safe to take at
// any moment (including after Stop).
type Stats struct {
	// Samples is the number of memory samples taken.
	Samples uint64
	// SoftTrips counts soft-limit responses (pressure-epoch bumps).
	SoftTrips uint64
	// HardTrips counts hard-limit cancellations (0 or 1).
	HardTrips uint64
	// PeakHeapBytes is the largest sampled live heap.
	PeakHeapBytes uint64
	// PeakDDNodes is the largest summed DD occupancy gauge sampled.
	PeakDDNodes int64
}

// Add accumulates another snapshot into s: activity counters sum, the peak
// gauges take the maximum.  Aggregating watchdogs from different runs (the
// serving layer folds every job's watchdog into its /metrics totals) this
// yields total activity plus the worst single-run peaks — peaks from
// disjoint runs must not be summed, the runs never coexisted.
func (s *Stats) Add(o Stats) {
	s.Samples += o.Samples
	s.SoftTrips += o.SoftTrips
	s.HardTrips += o.HardTrips
	if o.PeakHeapBytes > s.PeakHeapBytes {
		s.PeakHeapBytes = o.PeakHeapBytes
	}
	if o.PeakDDNodes > s.PeakDDNodes {
		s.PeakDDNodes = o.PeakDDNodes
	}
}

// Watchdog enforces a memory budget over one checking run.  Create it with
// Start; it samples until Stop is called, its context is cancelled, or the
// hard limit trips.
type Watchdog struct {
	cfg Config

	epoch     atomic.Uint64 // pressure epoch, observed by packages leased on the run's context
	samples   atomic.Uint64
	softTrips atomic.Uint64
	hardTrips atomic.Uint64
	peakHeap  atomic.Uint64
	peakNodes atomic.Int64

	mu     sync.Mutex
	gauges map[int]func() int64
	nextID int

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// Start launches a watchdog sampling under cfg and returns it together with a
// context derived from parent (nil means context.Background) that carries the
// watchdog (see FromContext) and is cancelled with a *MemoryLimitError cause
// when the hard limit trips.  Callers must Stop the watchdog when the run
// ends; Stop is idempotent.
func Start(parent context.Context, cfg Config) (*Watchdog, context.Context) {
	if parent == nil {
		parent = context.Background()
	}
	cfg = cfg.withDefaults()
	cctx, cancel := context.WithCancelCause(parent)
	w := &Watchdog{
		cfg:    cfg,
		gauges: make(map[int]func() int64),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go w.loop(cctx, cancel)
	return w, With(cctx, w)
}

// Stop ends the sampling loop and waits for it to exit.  Idempotent and safe
// to call concurrently; Stats remain readable afterwards.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	<-w.doneCh
}

// Epoch returns the current pressure epoch.  dd.Pool.Lease installs this
// method as the leased package's pressure hook: every epoch bump forces one
// DD collection + cache flush at the package's next GC safe point.
func (w *Watchdog) Epoch() uint64 { return w.epoch.Load() }

// AddGauge registers an occupancy gauge (dd.Pool.Lease registers the leased
// package's node count) that the sampling loop sums into the DD-occupancy
// telemetry.  The returned
// function unregisters the gauge; callers must invoke it before the gauge's
// owner is torn down.
func (w *Watchdog) AddGauge(g func() int64) (remove func()) {
	w.mu.Lock()
	id := w.nextID
	w.nextID++
	w.gauges[id] = g
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		delete(w.gauges, id)
		w.mu.Unlock()
	}
}

// Stats snapshots the watchdog counters.
func (w *Watchdog) Stats() Stats {
	return Stats{
		Samples:       w.samples.Load(),
		SoftTrips:     w.softTrips.Load(),
		HardTrips:     w.hardTrips.Load(),
		PeakHeapBytes: w.peakHeap.Load(),
		PeakDDNodes:   w.peakNodes.Load(),
	}
}

func (w *Watchdog) sumGauges() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, g := range w.gauges {
		total += g()
	}
	return total
}

func (w *Watchdog) loop(ctx context.Context, cancel context.CancelCauseFunc) {
	defer close(w.doneCh)
	// Release the derived context's resources when the loop exits without a
	// hard trip (Stop or parent cancellation).
	defer cancel(nil)
	ticker := time.NewTicker(w.cfg.Interval)
	defer ticker.Stop()
	var lastSoft uint64
	for {
		select {
		case <-w.stopCh:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap := ms.HeapAlloc
		nodes := w.sumGauges()
		n := w.samples.Add(1)
		storeMaxU64(&w.peakHeap, heap)
		storeMaxI64(&w.peakNodes, nodes)
		if hard := w.cfg.HardLimit; hard > 0 && heap >= hard {
			w.hardTrips.Add(1)
			cancel(&MemoryLimitError{HeapBytes: heap, LimitBytes: hard, DDNodes: nodes})
			return
		}
		if soft := w.cfg.SoftLimit; soft > 0 && heap >= soft {
			if lastSoft == 0 || n-lastSoft >= softRearmSamples {
				lastSoft = n
				w.softTrips.Add(1)
				w.epoch.Add(1)
				// The epoch bump only schedules DD collections; running the Go
				// collector too actually returns the freed nodes to the heap
				// the hard limit is measured against.
				runtime.GC()
			}
		}
	}
}

func storeMaxU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func storeMaxI64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

type ctxKey struct{}

// With returns a context carrying the watchdog, so deeply nested stages
// (core → ec → dd packages) can discover the run's budget without threading
// it through every options struct.
func With(ctx context.Context, w *Watchdog) context.Context {
	return context.WithValue(ctx, ctxKey{}, w)
}

// FromContext returns the watchdog carried by the context, or nil.  A nil
// context is allowed and yields nil.
func FromContext(ctx context.Context) *Watchdog {
	if ctx == nil {
		return nil
	}
	w, _ := ctx.Value(ctxKey{}).(*Watchdog)
	return w
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
