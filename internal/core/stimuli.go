package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/resource"
	"qcec/internal/sim"
)

// stage is one check's simulation state: the circuit pair compiled once
// into read-only sim.Programs, and one runner per simulation worker, leased
// the first time the worker runs and held until the check ends (release).
// The R stimuli, the complete check (on worker 0's package, see
// stage.check) and the remaining basis columns after a yielded probe all
// run on these packages, so a check leases one package per worker, binds
// each distinct gate once per package, and the remaining columns start on
// the compute tables the stimuli warmed.
type stage struct {
	prog1, prog2 *sim.Program
	opts         Options
	runners      []*simRunner // runners[w] is worker w's, nil until it first runs
	// deadline, when set, stops the workers between stimuli and, installed
	// on their packages, inside DD operations: the complete check's
	// deadline, under which the remaining columns run.
	deadline time.Time
}

// newStage compiles the circuit pair for the flow on opts.
func newStage(g1, g2 *circuit.Circuit, opts Options) *stage {
	return &stage{prog1: sim.Prepare(g1), prog2: sim.Prepare(g2), opts: opts}
}

// simRunner bundles the per-worker simulation state: one leased DD package
// and the circuit pair bound to it (sim.Pair, which also holds the
// un-permutation matrix if the pair declares an output permutation).
type simRunner struct {
	p         *dd.Package
	pair      *sim.Pair
	upToPhase bool
	agreeTol  float64 // state-agreement tolerance, derived from the DD tolerance
	threshold float64 // approximate mode when > 0
	// fault records a genuine panic recovered on p: release drops p, since
	// injected chaos may have corrupted state a reset cannot undo (a
	// non-finite interned weight, say).
	fault bool
	// mark is p's statistics when the work accounted so far ended (see
	// account).
	mark dd.Stats
}

// runner returns worker w's runner, leasing its package and binding the
// circuit pair on first use.  The package is leased on the flow's context,
// so a cancellation reaches inside a single large simulation, not just
// between stimuli (the resulting *dd.LimitError panic is recovered by the
// stimulus loop), and a memory watchdog on the context sees the package.
// The runner is stored before the pair is bound, so a panic while binding
// still leaves the package to release.
func (st *stage) runner(w int) *simRunner {
	r := st.runners[w]
	if r == nil {
		p := st.opts.Pool.Lease(st.opts.Context, st.prog1.Qubits(), st.opts.Tolerance)
		r = &simRunner{
			p:         p,
			upToPhase: st.opts.UpToGlobalPhase,
			agreeTol:  cn.AgreementTolerance(st.opts.Tolerance),
			threshold: st.opts.FidelityThreshold,
			mark:      p.Snapshot(),
		}
		st.runners[w] = r
	}
	if r.pair == nil {
		r.pair = sim.NewPair(r.p, st.prog1, st.prog2, st.opts.OutputPerm)
	}
	return r
}

// account returns the package's work since the last account, and marks
// the current statistics as accounted.
func (r *simRunner) account() dd.Stats {
	now := r.p.Snapshot()
	d := now.Since(r.mark)
	r.mark = now
	return d
}

// check runs the complete check on worker 0's package (ec.CheckOn), keeping
// the pair's un-permutation matrix alive, and leaves the check's work out
// of the simulation statistics.  Worker 0 has run by then: every stage run
// has at least one worker.
func (st *stage) check(g1, g2 *circuit.Circuit, o ec.Options) ec.Result {
	r := st.runners[0]
	res, fault := ec.CheckOn(r.p, g1, g2, o, r.pair.Pinned())
	r.fault = r.fault || fault
	r.mark = r.p.Snapshot()
	return res
}

// release ends every runner's lease, dropping the packages that faulted,
// or all of them when the flow itself is unwinding a panic (abandon).
func (st *stage) release(abandon bool) {
	for _, r := range st.runners {
		if r != nil {
			r.p.Release(abandon || r.fault)
		}
	}
	st.runners = nil
}

// compare runs one column comparison (sim.Pair.Compare), returning the
// output fidelity, whether the two outputs are the same DD edge (the test
// ec.classify applies to the miter), and a counterexample if the outputs
// disagree (under the exact or the approximate criterion), nil otherwise.
// Outputs that agree only within the overlap tolerance are no
// counterexample, but not identical either.
func (r *simRunner) compare(input uint64) (*Counterexample, float64, bool) {
	col := r.pair.Compare(input)
	fidelity := col.Fidelity()
	agree := cn.StatesAgree(col.Overlap, r.upToPhase, r.agreeTol)
	if r.threshold > 0 {
		agree = fidelity >= r.threshold
	}
	if agree {
		return nil, fidelity, col.Identical
	}
	return &Counterexample{
		Input:    input,
		Overlap:  col.Overlap,
		Fidelity: fidelity,
		StateG:   r.p.FormatState(col.U, 4),
		StateGp:  r.p.FormatState(col.V, 4),
	}, fidelity, false
}

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

func (f *fidStats) merge(o fidStats) {
	f.min = min(f.min, o.min)
	f.sum += o.sum
	f.count += o.count
}

func (f fidStats) avg() float64 {
	if f.count == 0 {
		return 1
	}
	return f.sum / float64(f.count)
}

// simRun is the outcome of simulating one list of stimuli.
type simRun struct {
	n         int             // stimuli whose comparison finished
	ce        *Counterexample // the first counterexample in stimulus order
	stats     fidStats
	identical bool     // every finished column's two outputs were the same DD edge
	dd        dd.Stats // summed across the run's packages
	// err is a worker's recovered panic (degenerate input or injected
	// chaos); the other fields then reflect the progress made before it.
	err error
}

func newSimRun() simRun { return simRun{stats: newFidStats(), identical: true} }

// add accounts a later run over further stimuli; the earlier run's
// counterexample and error, if any, stand.
func (r *simRun) add(o simRun) {
	r.n += o.n
	if r.ce == nil {
		r.ce = o.ce
	}
	r.stats.merge(o.stats)
	r.identical = r.identical && o.identical
	r.dd.Add(o.dd)
	if r.err == nil {
		r.err = o.err
	}
}

// cancelled reports whether the flow's context (if any) has been cancelled.
func cancelled(opts Options) bool {
	return opts.Context != nil && opts.Context.Err() != nil
}

// stopped reports whether the workers must stop between stimuli: the flow
// was cancelled, or the stage's deadline passed.
func (st *stage) stopped() bool {
	return cancelled(st.opts) || st.pastDeadline()
}

// pastDeadline reports whether the stage's deadline, if any, has passed.
func (st *stage) pastDeadline() bool {
	return !st.deadline.IsZero() && time.Now().After(st.deadline)
}

// recoverWorker isolates a simulation worker: the *dd.LimitError panic raised
// mid-simulation is absorbed silently (a limit error here is the lease's
// cancellation hook or the stage deadline the stimulus loop installs on its
// package; the loop installs no node limit, and the loop's own polls then
// report the stop), and any other panic is converted into a typed
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

// evalHook and failHook, when non-nil, observe the stimulus runner:
// evalHook sees every stimulus index about to be evaluated, failHook every
// index recorded as a failure.  Test-only; they let the fast-forward
// regression test schedule workers deterministically and assert that
// nothing past the first failure is simulated, and the finish-by-simulation
// tests cancel mid-run.
var (
	evalHook func(i int)
	failHook func(i int)
)

// run is the simulation stage's one stimulus loop.  It distributes the
// stimuli round-robin over opts.Parallel workers (at least one, at most one
// per stimulus), each on its own runner.  A single worker is the paper's
// loop: one stimulus at a time, stopping at the first counterexample.  The
// result does not depend on the worker count: the first distinguishing
// stimulus in stimulus order is reported, and every stimulus before it has
// been checked.  Workers fast-forward past indices beyond the current best
// counterexample, so the early exit parallelizes too.
func (st *stage) run(stimuli []uint64) simRun {
	workers := max(1, min(st.opts.Parallel, len(stimuli)))
	for len(st.runners) < workers {
		st.runners = append(st.runners, nil)
	}
	ces := make([]*Counterexample, len(stimuli))
	fids := make([]float64, len(stimuli))
	evaluated := make([]bool, len(stimuli))
	workerDD := make([]dd.Stats, workers)
	workerErr := make([]error, workers)
	workerSame := make([]bool, workers)
	var firstFail atomic.Int64
	firstFail.Store(int64(len(stimuli)))

	// work is worker w's loop over its share of the stimuli.  A single
	// worker runs on the calling goroutine; several each get their own, as
	// a worker left on the caller delays the start of the others (2-worker
	// qbench rates on 5-8 qubit pairs fell by 13-32%).
	work := func(w int) {
		// Deferred before recoverWorker, so workerErr[w] is set when the
		// run is accounted: a worker that died on a genuine panic (a
		// *resource.PanicError) marks its package to be dropped at
		// release, while an absorbed cancellation keeps it.
		defer func() {
			if r := st.runners[w]; r != nil {
				workerDD[w] = r.account()
				r.fault = r.fault || workerErr[w] != nil
			}
		}()
		// Installed before the lease, so a panic while leasing or
		// binding (an unsupported register size, or a cancellation while
		// the un-permutation is built) becomes the worker's error too:
		// escaping a worker goroutine, it would end the process.
		label := "core.sim"
		if workers > 1 {
			label = fmt.Sprintf("core.sim worker %d", w)
		}
		defer recoverWorker(label, &workerErr[w])
		r := st.runner(w)
		r.p.SetDeadline(st.deadline)
		workerSame[w] = true
		for i := w; i < len(stimuli); i += workers {
			if st.stopped() {
				return
			}
			if int64(i) >= firstFail.Load() {
				return // this or an earlier stimulus already failed
			}
			if evalHook != nil {
				evalHook(i)
			}
			ce, fid, same := r.compare(stimuli[i])
			// Recorded only once the comparison finished: when a
			// cancellation is absorbed mid-compare (recoverWorker
			// swallows the *dd.LimitError panic raised by the lease's
			// cancellation hook), NumSims counts the stimuli whose
			// comparison actually finished, never the in-flight one.
			fids[i] = fid
			evaluated[i] = true
			workerSame[w] = workerSame[w] && same
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
			r.pair.MaybeGC()
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}

	run := newSimRun()
	for w := range workerDD {
		run.dd.Add(workerDD[w])
		run.identical = run.identical && workerSame[w]
		if run.err == nil {
			run.err = workerErr[w]
		}
	}
	fail := int(firstFail.Load()) // the first failing index, or len(stimuli)
	prefix := min(fail+1, len(stimuli))
	// Deterministic statistics: only the prefix through the first failure
	// counts.  The reported simulation count is the number of stimuli
	// actually evaluated, not the prefix length — a crashed worker may have
	// left indices before the counterexample unevaluated, and NumSims must
	// never overstate the work done (harness CSVs and reports trust it).
	for i := range prefix {
		if evaluated[i] {
			run.stats.add(fids[i])
		}
	}
	run.n = run.stats.count
	if fail < len(stimuli) {
		run.ce = ces[fail]
		if gap := prefix - run.n; gap > 0 && run.err != nil {
			run.err = fmt.Errorf("%w (%d of the %d stimuli before the counterexample left unevaluated)",
				run.err, gap, prefix)
		}
	}
	return run
}
