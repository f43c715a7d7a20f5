package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/dd"
	"qcec/internal/resource"
	"qcec/internal/sim"
)

// simRunner bundles the per-worker simulation state: one leased DD package,
// one simulator, and the pre-built un-permutation matrix if the pair
// declares an output permutation.
type simRunner struct {
	p         *dd.Package
	s         *sim.Simulator
	unperm    dd.MEdge
	havePerm  bool
	upToPhase bool
	agreeTol  float64 // state-agreement tolerance, derived from the DD tolerance
	threshold float64 // approximate mode when > 0
}

// simGCFloor is the collection floor of the simulation stage's packages,
// 32 times dd.DefaultGCThreshold.  The stage's dead nodes are its cache:
// G' replays G's gates on the same stimulus, and later stimuli revisit the
// same sub-states, so the compute-table entries over last run's garbage
// keep hitting until a collection invalidates them.  At the complete
// check's floor a 10-14 qubit Clifford stage collects every few thousand
// nodes and creates about 4.6 times the nodes; at this one the stage of a
// typical check never collects, while the complete check, whose garbage is
// rarely revisited, keeps the small floor and its cache-sized tables.
// Tests lower it to force collections (1 collects at every safe point) and
// restore it; it is a variable for them alone.
var simGCFloor = 1 << 18

// newSimRunner leases the worker's package on the flow's context, so a
// cancellation reaches inside a single large simulation, not just between
// stimuli (the resulting *dd.LimitError panic is recovered by the stimulus
// loops below), and a memory watchdog on the context sees the package.
func newSimRunner(n int, opts Options) *simRunner {
	r := &simRunner{
		p:         opts.Pool.Lease(opts.Context, n, opts.Tolerance),
		havePerm:  opts.OutputPerm != nil,
		upToPhase: opts.UpToGlobalPhase,
		agreeTol:  cn.AgreementTolerance(opts.Tolerance),
		threshold: opts.FidelityThreshold,
	}
	r.p.SetGCThreshold(simGCFloor)
	r.s = sim.NewOn(r.p)
	if r.havePerm {
		// Pinned for the runs' collections: compare applies it after both.
		r.unperm = sim.PermutationDD(r.p, circuit.InversePermutation(opts.OutputPerm))
		r.s.PinnedM = []dd.MEdge{r.unperm}
	}
	return r
}

// sharedProgs holds the one read-only compilation of the circuit pair that
// every stimulus worker drives.  The programs are immutable after
// prepareShared returns; each worker binds them to its private package
// (sim.Simulator keeps the binding per package), so nothing here is ever
// written concurrently.
type sharedProgs struct {
	g1, g2 *sim.Program
}

// prepareShared compiles the pair once for all workers.
func prepareShared(g1, g2 *circuit.Circuit) sharedProgs {
	return sharedProgs{g1: sim.Prepare(g1), g2: sim.Prepare(g2)}
}

// compare simulates both circuits on |input>, returning the output fidelity
// and a counterexample if the outputs disagree (under the exact or the
// approximate criterion), nil otherwise.
func (r *simRunner) compare(progs sharedProgs, input uint64) (*Counterexample, float64) {
	// Build the stimulus once and reuse it for both runs.  It must be pinned
	// across the first run's garbage collections: the second run starts from
	// the same edge, so its nodes have to stay interned until then.
	in := r.p.BasisState(input)
	u := r.s.RunProgramWithPins(progs.g1, in, []dd.VEdge{in})
	v := r.s.RunProgramWithPins(progs.g2, in, []dd.VEdge{u})
	if r.havePerm {
		v = r.p.MulMV(r.unperm, v)
	}
	overlap := r.p.InnerProduct(u, v)
	re, im := real(overlap), imag(overlap)
	fidelity := re*re + im*im
	agree := statesAgree(overlap, r.upToPhase, r.agreeTol)
	if r.threshold > 0 {
		agree = fidelity >= r.threshold
	}
	if agree {
		return nil, fidelity
	}
	return &Counterexample{
		Input:    input,
		Overlap:  overlap,
		Fidelity: fidelity,
		StateG:   r.p.FormatState(u, 4),
		StateGp:  r.p.FormatState(v, 4),
	}, fidelity
}

// gcBetween drops everything but the permutation matrix between stimuli.
func (r *simRunner) gcBetween() { r.p.MaybeGC(nil, r.s.PinnedM) }

// fidStats accumulates per-stimulus output fidelities.
type fidStats struct {
	min   float64
	sum   float64
	count int
}

func newFidStats() fidStats { return fidStats{min: 1} }

func (f *fidStats) add(fid float64) {
	if fid < f.min {
		f.min = fid
	}
	f.sum += fid
	f.count++
}

func (f fidStats) avg() float64 {
	if f.count == 0 {
		return 1
	}
	return f.sum / float64(f.count)
}

// cancelled reports whether the flow's context (if any) has been cancelled.
func cancelled(opts Options) bool {
	return opts.Context != nil && opts.Context.Err() != nil
}

// recoverWorker isolates a simulation worker: the *dd.LimitError panic raised
// by the lease's cancellation hook mid-simulation is absorbed silently (limit
// errors can only be cancellations here — the stimulus loops install no node
// limit or deadline), and any other panic is converted into a typed
// *resource.PanicError stored in *errp instead of crashing the process.  Must
// be installed directly with defer so recover() sees the panic.
func recoverWorker(op string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(*dd.LimitError); ok {
		return
	}
	*errp = resource.NewPanicError(op, r)
}

// evalHook and failHook, when non-nil, observe the parallel runner: evalHook
// sees every stimulus index about to be evaluated, failHook every index
// recorded as a failure.  Test-only; they let the fast-forward regression
// test schedule workers deterministically and assert that nothing past the
// first failure is simulated.
var (
	evalHook func(i int)
	failHook func(i int)
)

// runStimuliSequential is the paper's loop: one stimulus at a time, stopping
// at the first counterexample.  A non-nil err means the runner panicked mid-
// stage (degenerate input or injected chaos); the other returns then reflect
// the progress made before the fault.
func runStimuliSequential(g1, g2 *circuit.Circuit, stimuli []uint64, opts Options) (n int, ce *Counterexample, stats fidStats, ddStats dd.Stats, err error) {
	r := newSimRunner(g1.N, opts)
	// Deferred before recoverWorker, so err is set when the lease ends: a
	// runner that died on a genuine panic (a *resource.PanicError) drops its
	// package, since injected chaos may have corrupted state the reset
	// cannot undo (a non-finite interned weight, say), while an absorbed
	// cancellation (err == nil) recycles it.
	defer func() { ddStats = r.p.Release(err != nil) }()
	stats = newFidStats()
	// completed counts fully compared stimuli, and the deferred assignment —
	// not the loop body — publishes it into n.  When a cancellation is
	// absorbed mid-compare (recoverWorker swallows the *dd.LimitError panic
	// raised by the lease's cancellation hook), NumSims therefore reports only the
	// stimuli whose comparison actually finished, never the in-flight one.
	completed := 0
	defer func() { n = completed }()
	defer recoverWorker("core.sim", &err)
	progs := prepareShared(g1, g2)
	for _, input := range stimuli {
		if cancelled(opts) {
			return completed, nil, stats, ddStats, nil
		}
		ce, fid := r.compare(progs, input)
		stats.add(fid)
		completed++
		if ce != nil {
			return completed, ce, stats, ddStats, nil
		}
		r.gcBetween()
	}
	return completed, nil, stats, ddStats, nil
}

// runStimuliParallel distributes the stimuli round-robin over
// opts.Parallel workers, each with a private DD package.  The circuit pair
// is compiled once (prepareShared) and the read-only programs are driven by
// every worker, so per-worker setup is just a package and a binding.  The
// result is bit-identical to the sequential run: the first distinguishing
// stimulus in stimulus order is reported, and every stimulus before it has
// been checked.  Workers fast-forward past indices beyond the current best
// counterexample, so the early-exit behaviour parallelizes too.
func runStimuliParallel(g1, g2 *circuit.Circuit, stimuli []uint64, opts Options) (int, *Counterexample, fidStats, dd.Stats, error) {
	workers := opts.Parallel
	if workers > len(stimuli) {
		workers = len(stimuli)
	}
	progs := prepareShared(g1, g2)
	ces := make([]*Counterexample, len(stimuli))
	fids := make([]float64, len(stimuli))
	evaluated := make([]bool, len(stimuli))
	workerDD := make([]dd.Stats, workers)
	workerErr := make([]error, workers)
	var firstFail atomic.Int64
	firstFail.Store(int64(len(stimuli)))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newSimRunner(g1.N, opts)
			defer func() { workerDD[w] = r.p.Release(workerErr[w] != nil) }() // before recoverWorker, as in runStimuliSequential
			defer recoverWorker(fmt.Sprintf("core.sim worker %d", w), &workerErr[w])
			for i := w; i < len(stimuli); i += workers {
				if cancelled(opts) {
					return
				}
				if int64(i) >= firstFail.Load() {
					return // this or an earlier stimulus already failed
				}
				if evalHook != nil {
					evalHook(i)
				}
				ce, fid := r.compare(progs, stimuli[i])
				fids[i] = fid
				evaluated[i] = true
				if ce != nil {
					ces[i] = ce
					// Lower firstFail monotonically.
					for {
						cur := firstFail.Load()
						if int64(i) >= cur || firstFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					if failHook != nil {
						failHook(i)
					}
					return
				}
				r.gcBetween()
			}
		}(w)
	}
	wg.Wait()

	var ddStats dd.Stats
	for _, s := range workerDD {
		ddStats.Add(s)
	}
	var err error
	for _, e := range workerErr {
		if e != nil {
			err = e
			break
		}
	}
	stats := newFidStats()
	if idx := firstFail.Load(); idx < int64(len(stimuli)) {
		// Deterministic statistics: only the sequential prefix counts.  The
		// reported simulation count is the number of stimuli actually
		// evaluated, not idx+1 — a crashed worker may have left indices
		// before the counterexample unevaluated, and NumSims must never
		// overstate the work done (harness CSVs and reports trust it).
		for i := int64(0); i <= idx; i++ {
			if evaluated[i] {
				stats.add(fids[i])
			}
		}
		n := stats.count
		if gap := int(idx) + 1 - n; gap > 0 && err != nil {
			err = fmt.Errorf("%w (%d of the %d stimuli before the counterexample left unevaluated)",
				err, gap, int(idx)+1)
		}
		return n, ces[idx], stats, ddStats, err
	}
	n := 0
	for i := range fids {
		if evaluated[i] {
			n++
			stats.add(fids[i])
		}
	}
	return n, nil, stats, ddStats, err
}
