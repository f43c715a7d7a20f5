// Package portfolio is the race engine behind core.Check's prover race:
// it runs several equivalence-checking provers concurrently on the same
// circuit pair and returns the first definitive verdict.
//
// The paper's flow (Fig. 3) already sequences a cheap simulation prefilter
// before a complete DD-based check; the journal version of the work
// ("Advanced Equivalence Checking for Quantum Circuits") observes that the
// available decision procedures — simulation, DD construction, the
// alternating scheme, SAT miters, ZX rewriting — have wildly different
// per-instance strengths, and runs them as a concurrent portfolio.  This
// package is the generic part of that engine: every prover runs in its own
// goroutine against a shared context.Context; the first Equivalent /
// EquivalentUpToGlobalPhase / NotEquivalent answer wins and cancels the
// rest, which stop cooperatively (see the cancellation contract in
// DESIGN.md) instead of running to their private timeouts.  A panicking
// prover is isolated into its report.  The standard provers themselves
// (sim, dd, alt, gatecost, sat, zx, stab) are built by internal/core from
// one core.Options; this package imports no checker.
//
// The race is bounded by the caller's context: its deadline is the race's
// timeout, and a memory watchdog on it (internal/resource) is the race's
// memory budget.
//
// Concurrency invariant: dd.Package and cn.Table are not safe for concurrent
// use, so every prover constructs its own package(s); the engine never shares
// DD state between goroutines.  The only cross-goroutine values are the
// immutable input circuits and the plain-data Outcome structs.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/resource"
)

// Verdict is a portfolio-level equivalence verdict.  The zero value is
// Inconclusive, so an empty Outcome is safely non-definitive.
type Verdict int

// Possible verdicts.  Only the three non-Inconclusive values are
// "definitive" and end the race.
const (
	Inconclusive Verdict = iota
	Equivalent
	EquivalentUpToGlobalPhase
	NotEquivalent
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Inconclusive:
		return "inconclusive"
	case Equivalent:
		return "equivalent"
	case EquivalentUpToGlobalPhase:
		return "equivalent up to global phase"
	case NotEquivalent:
		return "not equivalent"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Definitive reports whether the verdict settles the instance (and hence
// wins the race).
func (v Verdict) Definitive() bool { return v != Inconclusive }

// Stop explains why a prover stopped.
type Stop int

// Stop reasons.  Provers report Finished/Inconclusive/Cancelled/Timeout/
// NodeLimit/Error about themselves; the engine upgrades the first definitive
// Finished to Won and distinguishes engine-timeout from lost-the-race
// cancellation.
const (
	// StopWon: this prover delivered the race's definitive verdict.
	StopWon Stop = iota
	// StopFinished: definitive verdict, but another prover won first.
	StopFinished
	// StopInconclusive: ran to completion without a definitive verdict
	// (e.g. an incomplete prover that failed to reduce the miter).
	StopInconclusive
	// StopCancelled: stopped because the shared context was cancelled after
	// another prover won.
	StopCancelled
	// StopTimeout: hit a wall-clock bound — its own or the race context's
	// deadline — with no winner involved.
	StopTimeout
	// StopNodeLimit: hit its DD node budget.
	StopNodeLimit
	// StopError: could not run on this instance (e.g. the SAT miter on a
	// non-classical circuit).
	StopError
	// StopPanicked: the prover's goroutine panicked and was isolated; the
	// report's Err carries the *resource.PanicError with the stack.  The
	// race continues on the surviving provers.
	StopPanicked
	// StopMemLimit: stopped by the memory watchdog's hard limit (the
	// report's Err carries the *resource.MemoryLimitError).
	StopMemLimit
)

// String returns the stop-reason name.
func (s Stop) String() string {
	switch s {
	case StopWon:
		return "won"
	case StopFinished:
		return "finished"
	case StopInconclusive:
		return "inconclusive"
	case StopCancelled:
		return "cancelled"
	case StopTimeout:
		return "timeout"
	case StopNodeLimit:
		return "node-limit"
	case StopError:
		return "error"
	case StopPanicked:
		return "panicked"
	case StopMemLimit:
		return "mem-limit"
	default:
		return fmt.Sprintf("stop(%d)", int(s))
	}
}

// Outcome is what a single prover reports back to the engine.
type Outcome struct {
	// Verdict is the prover's conclusion; Inconclusive loses the race.
	Verdict Verdict
	// Counterexample is a basis state on which the circuits differ, when the
	// verdict is NotEquivalent and the prover found one.
	Counterexample *uint64
	// Stop is the prover's own account of why it stopped; for definitive
	// verdicts the engine replaces it with Won or Finished.
	Stop Stop
	// PeakNodes is the largest live DD population the prover observed
	// (0 for provers that do not build DDs).
	PeakNodes int
	// DD carries the prover's DD-package statistics (nil for provers that do
	// not build DDs, e.g. sat and zx).
	DD *dd.Stats
	// Err is the typed failure behind StopPanicked (*resource.PanicError),
	// StopMemLimit (*resource.MemoryLimitError) or StopError; nil otherwise.
	Err error
	// Detail is a short human-readable note for the report table.
	Detail string
}

// Prover is one competitor: a name and a run function.  Run must honor ctx —
// return promptly once ctx is cancelled — and must build all of its mutable
// state (DD packages, complex tables, solvers) itself, per goroutine.
type Prover struct {
	Name string
	Run  func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome
	// Degraded, when non-nil, is a conservative fallback configuration of
	// the same prover (sequential, smaller node budget); the engine runs it
	// once after Run panics, while the race is still undecided.  Leave it
	// nil to disable the retry.
	Degraded func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome
}

// Report is the engine's per-prover observability record.
type Report struct {
	Name      string
	Verdict   Verdict
	Stop      Stop
	Runtime   time.Duration
	PeakNodes int
	// DD is the prover's DD-package telemetry (nil for DD-free provers).
	DD *dd.Stats
	// Err is the prover's typed failure (see Outcome.Err).  For a retried
	// prover whose degraded run succeeded, it keeps the first crash on
	// record.
	Err error
	// Retried reports that the prover crashed and was re-run once with its
	// degraded configuration (Prover.Degraded).
	Retried bool
	Detail  string
}

// Result is the outcome of a portfolio run.
type Result struct {
	// Verdict is the winning verdict, or Inconclusive when no prover
	// produced a definitive one.
	Verdict Verdict
	// Winner is the name of the prover that produced the verdict ("" when
	// inconclusive).
	Winner string
	// Counterexample is the winner's distinguishing basis state, if any.
	Counterexample *uint64
	// Runtime is the wall-clock time of the whole race, including waiting
	// for cancelled losers to acknowledge.
	Runtime time.Duration
	// Reports lists every prover's outcome in the order provers were given.
	Reports []Report
}

// Run races the provers on the pair (g1, g2) and returns the first
// definitive verdict.  Losing provers are cancelled through a context
// derived from ctx, and Run waits for all of them to acknowledge before
// returning, so no prover goroutine outlives the call.  ctx bounds the race:
// with no winner, provers stopped by its deadline report StopTimeout, and
// provers stopped by a memory watchdog's hard limit on it (resource.Start)
// report StopMemLimit.
func Run(ctx context.Context, g1, g2 *circuit.Circuit, provers []Prover) Result {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := Result{Reports: make([]Report, len(provers))}
	var (
		mu        sync.Mutex
		winnerIdx = -1
	)
	var wg sync.WaitGroup
	for i, p := range provers {
		wg.Add(1)
		go func(i int, p Prover) {
			defer wg.Done()
			t0 := time.Now()
			out, retried := runProver(ctx, p, g1, g2)
			elapsed := time.Since(t0)

			mu.Lock()
			defer mu.Unlock()
			stop := out.Stop
			if out.Verdict.Definitive() {
				if winnerIdx < 0 {
					winnerIdx = i
					res.Verdict = out.Verdict
					res.Winner = p.Name
					res.Counterexample = out.Counterexample
					stop = StopWon
					cancel() // stop the losers promptly
				} else {
					stop = StopFinished
				}
			}
			res.Reports[i] = Report{
				Name:      p.Name,
				Verdict:   out.Verdict,
				Stop:      stop,
				Runtime:   elapsed,
				PeakNodes: out.PeakNodes,
				DD:        out.DD,
				Err:       out.Err,
				Retried:   retried,
				Detail:    out.Detail,
			}
		}(i, p)
	}
	wg.Wait()

	// With no winner, a prover that observed the context going away was
	// stopped by the caller's deadline — or by the memory watchdog's hard
	// limit — not by losing a race.
	if winnerIdx < 0 && ctx.Err() != nil {
		stop := StopTimeout
		var mle *resource.MemoryLimitError
		if errors.As(context.Cause(ctx), &mle) {
			stop = StopMemLimit
		}
		for i := range res.Reports {
			if res.Reports[i].Stop == StopCancelled {
				res.Reports[i].Stop = stop
				if stop == StopMemLimit && res.Reports[i].Err == nil {
					res.Reports[i].Err = mle
				}
			}
		}
	}
	res.Runtime = time.Since(start)
	return res
}

// runProver executes one prover with panic isolation, retrying a crashed
// prover once with its degraded configuration when it has one.  The second
// return reports whether a retry ran.
func runProver(ctx context.Context, p Prover, g1, g2 *circuit.Circuit) (Outcome, bool) {
	out := safeRun(p.Name, p.Run, ctx, g1, g2)
	if out.Stop != StopPanicked || p.Degraded == nil || ctx.Err() != nil {
		return out, false
	}
	crash := out.Err
	out = safeRun(p.Name, p.Degraded, ctx, g1, g2)
	if out.Err == nil {
		out.Err = crash // keep the first crash on record
	}
	if out.Detail != "" {
		out.Detail += "; "
	}
	out.Detail += "retried with degraded config after panic"
	return out, true
}

// safeRun invokes a prover function with panic isolation: a panic becomes an
// Outcome with StopPanicked and a typed *resource.PanicError instead of
// killing the process.  The zero Verdict (Inconclusive) guarantees a
// panicking prover can never win the race.
func safeRun(name string, run func(context.Context, *circuit.Circuit, *circuit.Circuit) Outcome,
	ctx context.Context, g1, g2 *circuit.Circuit) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			perr := resource.NewPanicError("prover "+name, r)
			out = Outcome{Stop: StopPanicked, Err: perr, Detail: perr.Error()}
		}
	}()
	return run(ctx, g1, g2)
}
