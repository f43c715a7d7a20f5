// Package core implements the paper's proposed equivalence checking flow
// (Fig. 3): before constructing any complete functionality, simulate both
// circuits on r << 2^n randomly chosen computational basis states and compare
// the resulting states.
//
//   - If any simulation pair differs, the circuits are proven NOT equivalent
//     and the stimulus is a counterexample.  Because design-flow errors
//     typically perturb most columns of the system matrix (Sec. IV-A), this
//     almost always happens on the very first stimulus.
//   - If all r simulations agree, a conventional complete equivalence
//     checking routine (internal/ec) is employed.  If it finishes, its
//     verdict is definitive; if it times out, the flow still reports a
//     high-probability equivalence estimate — strictly more information than
//     the state of the art, which reports nothing on timeout.  A pair whose
//     gates are all Clifford has a complete routine polynomial in its size,
//     the stabilizer tableau (internal/stab), and the gate set routes it
//     there instead (see decideByTableau).
//   - Simulating all 2^n basis states and finding every pair of outputs
//     identical is itself a proof (paper Sec. III-B).  So in strict mode the
//     complete routine runs as a probe: once the columns not yet simulated
//     are predicted to cost less than the rest of the routine, counted in
//     DD lookups, it yields and the flow simulates those columns instead
//     (see finish.go), on the packages the stimuli ran on.  Small registers with cheap columns, such as routed
//     reversible netlists, are decided this way; a failing column is an
//     ordinary simulation counterexample.
//
// Check is the one entry point and Options the one options type.  By
// default Check runs exactly the flow above.  With Options.Provers set it
// instead races the named provers (ProverNames) concurrently on the
// internal/portfolio engine — the portfolio of the journal version of the
// work, and the one place the checkers beyond the flow run — and the first
// definitive verdict wins.  Both modes answer in the same Report.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/portfolio"
	"qcec/internal/resource"
	"qcec/internal/stab"
)

// Verdict is the outcome of the proposed flow.
type Verdict int

// The flow's possible outcomes (the three boxes at the bottom of Fig. 3,
// plus the strict/phase distinction).
const (
	// Equivalent: proven equivalent (by the complete routine, or by
	// simulating all 2^n basis states and finding every column identical).
	Equivalent Verdict = iota
	// EquivalentUpToGlobalPhase: proven equivalent modulo a scalar phase.
	EquivalentUpToGlobalPhase
	// NotEquivalent: proven different; a counterexample stimulus is attached.
	NotEquivalent
	// ProbablyEquivalent: all simulations agreed but the complete routine
	// timed out (or was skipped) — the paper's "Timeout" outcome, now
	// carrying a high-probability estimate instead of no information.
	ProbablyEquivalent
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case EquivalentUpToGlobalPhase:
		return "equivalent up to global phase"
	case NotEquivalent:
		return "not equivalent"
	case ProbablyEquivalent:
		return "probably equivalent (complete check inconclusive)"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// DefaultR is the number of random simulation runs; the paper concludes
// r = 10 "suffices to reason about the operations' equivalence in practice".
const DefaultR = 10

// Options configures the flow.
type Options struct {
	// Context, when non-nil, cancels the flow cooperatively: the stimulus
	// workers poll it between simulations, each worker's DD package polls
	// it inside long operations, and it is passed down to the complete
	// routine (ec.Options.Context).  A cancelled run returns with
	// Report.Cancelled set and an inconclusive verdict.  Its deadline is
	// also the prover race's timeout.
	Context context.Context
	// Provers, when non-nil, races the named provers (see ProverNames)
	// concurrently instead of running the pipeline; the first definitive
	// verdict wins and cancels the rest, Report.DecidedBy names the winner
	// and Report.Provers holds every prover's outcome.  Every prover runs
	// on these Options (the "dd" and "gatecost" provers with their own
	// Strategy).  The race cannot honour SkipEC or FidelityThreshold;
	// Check rejects them, and an empty or unknown prover list, with an
	// *OptionsError in Report.Err.
	Provers []string
	// RetryCrashed, in a race, re-runs a prover whose goroutine panicked
	// once on Degraded() options while the race is still undecided (the
	// sim, dd, alt and gatecost provers; the others have no smaller
	// configuration).
	RetryCrashed bool
	// R is the number of random basis-state simulations (default DefaultR).
	// If R >= 2^n the flow simulates all basis states, which proves
	// equivalence exhaustively in strict-phase mode when every column pair
	// is identical.  With fewer, the complete routine may still yield to
	// simulating the remaining 2^n - R columns (see Report.EC), so a
	// strict-mode check may run more than R simulations.
	R int
	// Seed drives stimulus selection; runs are deterministic per seed.
	Seed int64
	// Stimuli overrides random stimulus selection (used by the ablation
	// experiments); R is ignored when non-nil.
	Stimuli []uint64
	// SkipEC stops after the simulation stage (simulation-only mode); an
	// all-agree outcome then yields ProbablyEquivalent.
	SkipEC bool
	// Strategy, ECTimeout and ECNodeLimit configure the complete routine.
	// A Clifford pair's tableau check has no strategy and builds no DD, so
	// of the three only ECTimeout bounds it.
	Strategy    ec.Strategy
	ECTimeout   time.Duration
	ECNodeLimit int
	// Parallel runs the simulation stage with this many workers, each on
	// its own DD package (the DD package is single-threaded).  Verdicts and
	// counterexamples do not depend on it: the first distinguishing
	// stimulus in stimulus order wins.  0 or 1 = one worker.
	Parallel int
	// UpToGlobalPhase compares states and unitaries modulo a scalar phase.
	UpToGlobalPhase bool
	// OutputPerm declares that output wire OutputPerm[q] of G' corresponds
	// to wire q of G (see ec.Options.OutputPerm).
	OutputPerm []int
	// Tolerance is the DD weight tolerance (0 = cn.DefaultTolerance).  The
	// simulation stage's state-agreement tolerance is derived from it (see
	// cn.AgreementTolerance), so coarsening or tightening the weight
	// tolerance coarsens or tightens the equivalence criterion consistently.
	Tolerance float64
	// MemSoftLimit / MemHardLimit, in bytes, put the whole flow under a
	// memory watchdog (internal/resource): above the soft limit every
	// simulation worker's DD package is forced to collect and flush caches,
	// above the hard limit the flow's context is cancelled with a
	// *resource.MemoryLimitError cause (Report.Cancelled plus
	// Report.CancelCause).  In a race the one watchdog covers every
	// prover, and provers stopped by its hard limit report
	// portfolio.StopMemLimit.  Ignored when Context already carries a
	// watchdog; zero disables the respective bound.  Check is the only
	// place that starts a watchdog: every DD package the flow or race
	// leases (dd.Pool.Lease) finds it on the context.
	MemSoftLimit uint64
	MemHardLimit uint64
	// FidelityThreshold enables approximate equivalence checking: a
	// stimulus only counts as a counterexample when its output fidelity
	// |<u|u'>|^2 drops below the threshold (e.g. 0.99 when verifying a
	// compiler that deliberately prunes small rotations).  0 disables the
	// feature (exact comparison).  When enabled, the complete routine is
	// skipped — approximate equivalence has no exact DD verdict — and an
	// all-agree outcome reports ProbablyEquivalent with the observed
	// fidelity statistics in the report.
	FidelityThreshold float64
	// Pool, when non-nil, supplies warm DD packages for the simulation
	// workers instead of building fresh ones (dd.New) per check: one per
	// worker, held for the whole check, the complete routine running on
	// worker 0's.  A pooled package keeps its interned weights,
	// grown compute tables and gate registry across jobs, which is the
	// serving layer's amortization lever; packages are returned reset on
	// clean completion and dropped after genuine panics (their internal
	// state is no longer trustworthy).  Verdicts are identical either way.
	Pool *dd.Pool
}

// Degraded returns the conservative configuration of a re-run after a crash
// or a transient failure: one simulation worker, fresh DD packages instead
// of pooled ones, and the node budget of ec.DegradedNodeLimit, so the
// re-run cannot repeat a resource blow-up.  Both retry paths use it: a
// race's RetryCrashed and qcecd's transient-failure retry.
func (o Options) Degraded() Options {
	o.Parallel = 0
	o.Pool = nil
	o.ECNodeLimit = ec.DegradedNodeLimit(o.ECNodeLimit)
	return o
}

// ECOptions is the complete routine's configuration under o; every
// ec.Check of the pipeline, of the race's provers and of the experiments
// starts from it.
func (o Options) ECOptions() ec.Options {
	return ec.Options{
		Strategy:        o.Strategy,
		Context:         o.Context,
		Timeout:         o.ECTimeout,
		NodeLimit:       o.ECNodeLimit,
		UpToGlobalPhase: o.UpToGlobalPhase,
		OutputPerm:      o.OutputPerm,
		Tolerance:       o.Tolerance,
		Pool:            o.Pool,
	}
}

// Counterexample records a distinguishing stimulus found by simulation.
type Counterexample struct {
	// Input is the basis state |i> on which the circuits differ.
	Input uint64
	// Overlap is <u_i | u'_i>; equivalence requires 1 (Sec. IV-A).
	Overlap complex128
	// Fidelity is |Overlap|^2.
	Fidelity float64
	// StateG and StateGp render the two differing output states (largest
	// amplitudes first, truncated) for reports and CLI output.
	StateG  string
	StateGp string
}

// Report is the full outcome of the flow.
type Report struct {
	Verdict Verdict
	// DecidedBy names the stage that produced a definitive verdict — "sim",
	// "stab" (a Clifford pair's tableau) or "ec:<strategy>" (e.g.
	// "ec:proportional") — or in a race the winning prover (one of
	// ProverNames: "sim", "alt", "rewrite", ...), and is empty while the
	// verdict is inconclusive.
	DecidedBy      string
	NumSims        int           // simulation runs performed
	SimTime        time.Duration // paper column t_sim
	Counterexample *Counterexample
	Exhaustive     bool // simulation covered all 2^n distinct basis states
	// EC is the DD complete routine's outcome (nil if it never ran, as on a
	// Clifford pair, which the tableau decides).  When it
	// ran as a probe that yielded to simulating the remaining basis
	// columns, EC.Cause is ec.CauseYielded and EC keeps the probe's
	// Runtime and DD statistics, while NumSims, SimTime and DD include
	// the extra columns; EC.Cause becomes ec.CauseTimeout if the columns
	// then outran ECTimeout.
	EC *ec.Result
	// MinFidelity and AvgFidelity summarize the per-stimulus output
	// fidelities observed by the simulation stage (1 when no simulations
	// ran).  Under FidelityThreshold these quantify how approximate the
	// pair is.
	MinFidelity float64
	AvgFidelity float64
	// Cancelled reports that Options.Context was cancelled before the flow
	// reached a definitive verdict; the verdict is then inconclusive
	// (ProbablyEquivalent at best) regardless of how many stimuli agreed.
	Cancelled bool
	// CancelCause, set alongside Cancelled, is the context's cancellation
	// cause — a *resource.MemoryLimitError when the memory watchdog's hard
	// limit stopped the run, context.Canceled/DeadlineExceeded otherwise.
	CancelCause error
	// DD aggregates the simulation stage's DD-package statistics (gate-registry
	// and compute-table hit rates, unique-table activity, GC reclaims),
	// summed across parallel workers.  The complete routine's own statistics
	// live in EC.DD.
	DD dd.Stats
	// Err is set when the flow failed rather than finished: a
	// *StimulusRangeError from invalid caller-supplied Stimuli (no
	// simulation ran), a *resource.PanicError recovered from a simulation
	// worker (degenerate input such as non-finite gate parameters, or
	// injected chaos), or the complete routine's CauseError.  The verdict is
	// then ProbablyEquivalent (inconclusive) unless a healthy worker already
	// found a counterexample.  Callers must treat Err as "no usable
	// equivalence answer".
	Err error
	// Mem snapshots the memory watchdog's counters when this flow started
	// its own watchdog (MemSoftLimit/MemHardLimit set and no watchdog on
	// the context); nil otherwise.
	Mem *resource.Stats
	// Provers is a race's per-prover table, in Options.Provers order (nil
	// for the pipeline).  Beyond it a race fills only Verdict, DecidedBy,
	// the counterexample's Input, the cancellation fields, Mem and
	// TotalTime (the fidelities stay 1); per-prover failures stay in the
	// table, so Err is set only for rejected Options.
	Provers   []portfolio.Report
	TotalTime time.Duration
}

// ECTime returns the complete-routine runtime (paper column t_ec), zero if
// the routine never ran.
func (r Report) ECTime() time.Duration {
	if r.EC == nil {
		return 0
	}
	return r.EC.Runtime
}

// Check runs the proposed flow on the circuit pair, or with opts.Provers
// set races those provers.
func Check(g1, g2 *circuit.Circuit, opts Options) Report {
	var provers []portfolio.Prover
	if opts.Provers != nil {
		var err error
		if provers, err = raceProvers(opts); err != nil {
			return Report{Verdict: ProbablyEquivalent, MinFidelity: 1, AvgFidelity: 1, Err: err}
		}
	}
	// Put the flow under a memory watchdog when limits are configured and
	// the caller has not already provided one through the context.
	w := resource.FromContext(opts.Context)
	ownWatchdog := false
	if w == nil && (opts.MemSoftLimit > 0 || opts.MemHardLimit > 0) {
		w, opts.Context = resource.Start(opts.Context, resource.Config{
			SoftLimit: opts.MemSoftLimit,
			HardLimit: opts.MemHardLimit,
		})
		ownWatchdog = true
	}
	var report Report
	if provers != nil {
		report = race(g1, g2, provers, opts)
	} else {
		report = check(g1, g2, opts)
	}
	if report.Cancelled && report.CancelCause == nil {
		if ctx := opts.Context; ctx != nil {
			report.CancelCause = context.Cause(ctx)
		}
	}
	if ownWatchdog {
		w.Stop()
		st := w.Stats()
		report.Mem = &st
	}
	return report
}

// check is the pipeline; Check wraps it with watchdog setup/teardown.
func check(g1, g2 *circuit.Circuit, opts Options) Report {
	start := time.Now()
	report := Report{MinFidelity: 1, AvgFidelity: 1} // until a simulation runs
	if g1.N != g2.N {
		report.Verdict = NotEquivalent
		report.TotalTime = time.Since(start)
		return report
	}

	stimuli, err := chooseStimuli(g1.N, opts)
	if err != nil {
		// Invalid caller-supplied stimuli: fail the options check up front
		// instead of letting dd.BasisState panic deep inside a worker.
		report.Err = err
		report.Verdict = ProbablyEquivalent
		report.TotalTime = time.Since(start)
		return report
	}
	cols := coveredColumns(stimuli)
	report.Exhaustive = g1.N < 63 && uint64(len(cols)) == uint64(1)<<uint(g1.N)

	st := newStage(g1, g2, opts)
	defer func() {
		// A panic escaping the flow may have left any package
		// mid-operation: drop them all.
		if r := recover(); r != nil {
			st.release(true)
			panic(r)
		}
		st.release(false)
	}()
	simStart := time.Now()
	run := st.run(stimuli)
	report.SimTime = time.Since(simStart)
	report.setSim(run)
	if run.ce != nil {
		// A concrete distinguishing stimulus is definitive even if another
		// worker crashed: the counterexample stands on its own, so the crash
		// only cost coverage that no longer matters.
		report.decideBySim(run.ce)
		report.TotalTime = time.Since(start)
		return report
	}
	if run.err != nil {
		// A worker died mid-stage, so the surviving agreement does not cover
		// all chosen stimuli — an exhaustive-proof or all-agree claim would
		// be unsound, and the complete routine would hit the same fault.
		// Surface the typed error and stop with an inconclusive verdict.
		report.Err = run.err
		report.Verdict = ProbablyEquivalent
		report.Exhaustive = false
		report.TotalTime = time.Since(start)
		return report
	}
	if cancelled(opts) {
		// Cancelled before the stimuli were exhausted: the agreement seen so
		// far is not the full high-probability estimate, and running the
		// complete routine would be pointless (it would observe the same
		// cancelled context immediately).
		report.Cancelled = true
		report.Verdict = ProbablyEquivalent
		report.TotalTime = time.Since(start)
		return report
	}

	if opts.FidelityThreshold > 0 {
		// Approximate mode: the complete routine has no approximate verdict;
		// the fidelity statistics in the report are the result.
		report.Verdict = ProbablyEquivalent
		report.TotalTime = time.Since(start)
		return report
	}

	if report.Exhaustive && !opts.UpToGlobalPhase && run.identical {
		// Every column pair is the same DD edge, i.e. U = U' — a complete
		// proof (paper Sec. III-B).  A column that agrees only within the
		// overlap tolerance proves nothing; the complete check decides.
		report.decideBySim(nil)
		report.TotalTime = time.Since(start)
		return report
	}

	if opts.SkipEC {
		report.Verdict = ProbablyEquivalent
		report.TotalTime = time.Since(start)
		return report
	}

	if run.n > 0 && cliffordPair(g1, g2, opts.Tolerance) {
		report.decideByTableau(g1, g2, opts, run.identical)
		report.TotalTime = time.Since(start)
		return report
	}

	ecOpts := opts.ECOptions()
	if finishEligible(g1.N, opts, run) {
		ecOpts.Progress = yieldRule(g1.N, run, len(cols))
	}
	var deadline time.Time
	if opts.ECTimeout > 0 {
		deadline = time.Now().Add(opts.ECTimeout)
	}
	res := st.check(g1, g2, ecOpts)
	if res.Cause == ec.CauseYielded {
		report.finishBySimulation(st, g1, g2, cols, deadline, run, res)
	} else {
		report.decideByEC(res)
	}
	report.TotalTime = time.Since(start)
	return report
}

// setSim records the simulation stage's outcome: counts, statistics and
// fidelities.
func (r *Report) setSim(run simRun) {
	r.NumSims = run.n
	r.DD = run.dd
	r.MinFidelity = run.stats.min
	r.AvgFidelity = run.stats.avg()
}

// decideBySim records a verdict of the simulation stage: NotEquivalent with
// the counterexample, or with ce == nil Equivalent by exhaustive simulation.
func (r *Report) decideBySim(ce *Counterexample) {
	r.DecidedBy = "sim"
	r.Counterexample = ce
	if ce != nil {
		r.Verdict = NotEquivalent
	} else {
		r.Verdict = Equivalent
	}
}

// decideByEC records the complete routine's outcome.
func (r *Report) decideByEC(res ec.Result) {
	r.EC = &res
	if res.Verdict != ec.TimedOut {
		r.DecidedBy = "ec:" + res.Strategy.String()
	}
	switch res.Verdict {
	case ec.Equivalent:
		r.Verdict = Equivalent
	case ec.EquivalentUpToGlobalPhase:
		r.Verdict = EquivalentUpToGlobalPhase
	case ec.NotEquivalent:
		// Possible in principle (footnote 4 of the paper) though never
		// observed there: simulation missed the difference but the complete
		// routine found it.
		r.Verdict = NotEquivalent
		if res.Counterexample != nil {
			r.Counterexample = &Counterexample{Input: *res.Counterexample}
		}
	case ec.TimedOut:
		r.Verdict = ProbablyEquivalent
		switch res.Cause {
		case ec.CauseCancelled:
			r.Cancelled = true
		case ec.CauseMemLimit:
			r.Cancelled = true
			r.CancelCause = res.Err
		case ec.CauseError:
			r.Err = res.Err
		}
	}
}

// cliffordPair reports whether every gate of both circuits is Clifford
// under the angle snap derived from tol: one early-exit scan, no
// allocation.
func cliffordPair(g1, g2 *circuit.Circuit, tol float64) bool {
	angleTol := circuit.CliffordAngleTolerance(tol)
	return circuit.IsClifford(g1, angleTol) && circuit.IsClifford(g2, angleTol)
}

// decideByTableau runs a Clifford pair's complete check on the stabilizer
// tableau (stab.Check), bounded by ECTimeout and the flow's context, and
// records its verdict.  A moved generator is a difference beyond any
// scalar.  Otherwise the tableau has proven U' = c·P·U, blind to the
// scalar c, and the stimuli that agreed pin it: in strict mode they agreed
// strictly, so c = 1; up to phase c = 1 only when every simulated column
// was the same DD edge (identical), the test ec's classify applies to the
// miter.
func (r *Report) decideByTableau(g1, g2 *circuit.Circuit, opts Options, identical bool) {
	angleTol := circuit.CliffordAngleTolerance(opts.Tolerance)
	ops1, _, _ := circuit.LowerClifford(g1, angleTol)
	ops2, _, _ := circuit.LowerClifford(g2, angleTol)
	var deadline time.Time
	if opts.ECTimeout > 0 {
		deadline = time.Now().Add(opts.ECTimeout)
	}
	res := stab.Check(opts.Context, deadline, g1.N, ops1, ops2, opts.OutputPerm)
	if res.Verdict == stab.Aborted {
		r.Verdict = ProbablyEquivalent
		r.Cancelled = cancelled(opts)
		return
	}
	r.DecidedBy = "stab"
	switch {
	case res.Verdict == stab.NotEquivalent:
		r.Verdict = NotEquivalent
		if res.Counterexample != nil {
			r.Counterexample = &Counterexample{Input: *res.Counterexample}
		}
	case identical || !opts.UpToGlobalPhase:
		r.Verdict = Equivalent
	default:
		r.Verdict = EquivalentUpToGlobalPhase
	}
}

// StimulusRangeError reports a caller-supplied stimulus that does not fit
// the circuits' register: basis state indices on n qubits must be below 2^n.
type StimulusRangeError struct {
	Index    int    // position in Options.Stimuli
	Stimulus uint64 // the offending basis-state index
	Qubits   int    // register size of the circuit pair
}

// Error formats the range violation.
func (e *StimulusRangeError) Error() string {
	return fmt.Sprintf("core: stimulus %d (index %d) out of range for %d qubits",
		e.Stimulus, e.Index, e.Qubits)
}

// validateStimuli checks caller-supplied basis-state indices against the
// n-qubit mask, so an out-of-range stimulus surfaces as a typed error here
// instead of a panic deep inside dd.BasisState on a worker goroutine.
func validateStimuli(n int, stimuli []uint64) error {
	if n >= 64 {
		return nil // every uint64 is a valid index
	}
	limit := uint64(1) << uint(n)
	for i, s := range stimuli {
		if s >= limit {
			return &StimulusRangeError{Index: i, Stimulus: s, Qubits: n}
		}
	}
	return nil
}

// chooseStimuli picks the basis states to simulate: the caller's explicit
// list (validated against the register size), all 2^n states when r covers
// them, or r distinct random states.
func chooseStimuli(n int, opts Options) ([]uint64, error) {
	if opts.Stimuli != nil {
		if err := validateStimuli(n, opts.Stimuli); err != nil {
			return nil, err
		}
		return opts.Stimuli, nil
	}
	r := opts.R
	if r <= 0 {
		r = DefaultR
	}
	if n < 63 {
		total := uint64(1) << uint(n)
		if uint64(r) >= total {
			all := make([]uint64, total)
			for i := range all {
				all[i] = uint64(i)
			}
			return all, nil
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var mask uint64
	if n >= 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << uint(n)) - 1
	}
	seen := make(map[uint64]bool, r)
	out := make([]uint64, 0, r)
	for len(out) < r {
		i := rng.Uint64() & mask
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	return out, nil
}
