package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"qcec/internal/circuit"
	"qcec/internal/ec"
	"qcec/internal/ecsat"
	"qcec/internal/portfolio"
	"qcec/internal/resource"
	"qcec/internal/zx"
)

// ProverNames lists the provers Options.Provers may name, in canonical
// order:
//
//	sim — the pipeline's simulation stage (random basis-state runs)
//	dd  — complete DD check, construction strategy (build and compare)
//	alt — complete DD check, alternating scheme (Options.Strategy)
//	gatecost — complete DD check, gate-cost schedule (compiled pairs only)
//	sat — SAT miter (classical reversible netlists only)
//	zx  — ZX-calculus rewriting (sound, incomplete, up to phase)
//	stab — polynomial-time stabilizer tableau (Clifford-only pairs)
var ProverNames = []string{"sim", "dd", "alt", "gatecost", "sat", "zx", "stab"}

// OptionsError reports Options that Check cannot run: an empty or unknown
// prover list, or a pipeline-only option combined with Provers.  Check then
// runs nothing and reports ProbablyEquivalent with the error in Report.Err.
type OptionsError struct {
	Field  string // the offending Options field
	Reason string
}

// Error formats the rejected field and why.
func (e *OptionsError) Error() string {
	return "core: Options." + e.Field + ": " + e.Reason
}

// raceError rejects the pipeline-only options a race cannot honour.
func (o Options) raceError() error {
	field := ""
	switch {
	case o.SkipEC:
		field = "SkipEC"
	case o.RewritePrefilter:
		field = "RewritePrefilter"
	case o.ZXPrefilter:
		field = "ZXPrefilter"
	case o.FidelityThreshold > 0:
		field = "FidelityThreshold"
	default:
		return nil
	}
	return &OptionsError{Field: field, Reason: "the prover race cannot honour it; run the pipeline (Provers == nil)"}
}

// raceProvers builds the race of opts.Provers; names are trimmed and empty
// ones skipped.
func raceProvers(opts Options) ([]portfolio.Prover, error) {
	var provers []portfolio.Prover
	for _, raw := range opts.Provers {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		p, err := NewProver(name, opts)
		if err != nil {
			return nil, err
		}
		provers = append(provers, p)
	}
	if len(provers) == 0 {
		return nil, &OptionsError{Field: "Provers",
			Reason: "no provers selected (have " + strings.Join(ProverNames, ",") + ")"}
	}
	return provers, nil
}

// adapter runs one prover on o, whose Context is the race's.
type adapter func(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome

// adapterFor returns the named prover and whether its Degraded() run
// differs from the primary one (it uses the simulation workers or a DD node
// budget).
func adapterFor(name string) (adapter, bool) {
	switch name {
	case "sim":
		return raceSim, true
	case "dd":
		return raceConstruction, true
	case "alt":
		return raceEC, true
	case "gatecost":
		return raceGateCost, true
	case "sat":
		return raceSAT, false
	case "zx":
		return raceZX, false
	case "stab":
		return raceStab, false
	}
	return nil, false
}

// NewProver builds the named prover (one of ProverNames) on opts for the
// portfolio engine; Check's race is made of these.  The prover runs under
// the race's context in place of opts.Context, and with opts.RetryCrashed
// the sim, dd, alt and gatecost provers retry a panic once on
// opts.Degraded().  It rejects, with an *OptionsError, an unknown name and
// the pipeline-only options the race cannot honour.
func NewProver(name string, opts Options) (portfolio.Prover, error) {
	if err := opts.raceError(); err != nil {
		return portfolio.Prover{}, err
	}
	run, degradable := adapterFor(name)
	if run == nil {
		return portfolio.Prover{}, &OptionsError{Field: "Provers",
			Reason: fmt.Sprintf("unknown prover %q (have %s)", name, strings.Join(ProverNames, ","))}
	}
	p := portfolio.Prover{Name: name, Run: bind(run, opts)}
	if opts.RetryCrashed && degradable {
		p.Degraded = bind(run, opts.Degraded())
	}
	return p, nil
}

// bind fixes a prover's options; each run gets its own copy carrying the
// race's context.
func bind(run adapter, o Options) func(context.Context, *circuit.Circuit, *circuit.Circuit) portfolio.Outcome {
	return func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
		oc := o
		oc.Context = ctx
		return run(g1, g2, oc)
	}
}

// race runs the provers on the portfolio engine and reports the winner in
// the pipeline's Report shape.  A race with no winner is inconclusive
// (ProbablyEquivalent), and Cancelled when opts.Context ended it.
func race(g1, g2 *circuit.Circuit, provers []portfolio.Prover, opts Options) Report {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res := portfolio.Run(ctx, g1, g2, provers)
	report := Report{
		Verdict:     ProbablyEquivalent,
		DecidedBy:   res.Winner,
		MinFidelity: 1,
		AvgFidelity: 1,
		Provers:     res.Reports,
		TotalTime:   res.Runtime,
	}
	switch res.Verdict {
	case portfolio.Equivalent:
		report.Verdict = Equivalent
	case portfolio.EquivalentUpToGlobalPhase:
		report.Verdict = EquivalentUpToGlobalPhase
	case portfolio.NotEquivalent:
		report.Verdict = NotEquivalent
	default:
		report.Cancelled = ctx.Err() != nil
	}
	if res.Counterexample != nil {
		report.Counterexample = &Counterexample{Input: *res.Counterexample}
	}
	return report
}

// raceSim runs the pipeline's simulation stage (the complete routine
// skipped).  It proves non-equivalence with a counterexample, proves
// equivalence only when the stimuli are exhaustive, and is otherwise
// inconclusive.
func raceSim(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome {
	o.SkipEC = true
	rep := check(g1, g2, o)
	ddStats := rep.DD
	if rep.Err != nil {
		// Worker panic isolated by the stage: degraded, not definitive.
		return portfolio.Outcome{Stop: portfolio.StopError, Err: rep.Err, Detail: rep.Err.Error(), DD: &ddStats}
	}
	out := portfolio.Outcome{Detail: fmt.Sprintf("%d sims", rep.NumSims), DD: &ddStats}
	switch rep.Verdict {
	case NotEquivalent:
		out.Verdict = portfolio.NotEquivalent
		if rep.Counterexample != nil {
			ce := rep.Counterexample.Input
			out.Counterexample = &ce
			out.Detail = fmt.Sprintf("%d sims, counterexample |%b>", rep.NumSims, ce)
		}
	case Equivalent:
		out.Verdict = portfolio.Equivalent
		out.Detail = fmt.Sprintf("%d sims (exhaustive)", rep.NumSims)
	case EquivalentUpToGlobalPhase:
		out.Verdict = portfolio.EquivalentUpToGlobalPhase
	default: // ProbablyEquivalent: not definitive
		if rep.Cancelled {
			out.Stop = portfolio.StopCancelled
			var mle *resource.MemoryLimitError
			if errors.As(context.Cause(o.Context), &mle) {
				out.Stop = portfolio.StopMemLimit
				out.Err = mle
			}
		} else {
			out.Stop = portfolio.StopInconclusive
			out.Detail = fmt.Sprintf("%d sims agreed (not a proof)", rep.NumSims)
		}
	}
	return out
}

// ecOutcome translates a complete-routine result into a race outcome.
func ecOutcome(res ec.Result) portfolio.Outcome {
	ddStats := res.DD
	out := portfolio.Outcome{
		PeakNodes: res.PeakNodes,
		DD:        &ddStats,
		Detail:    fmt.Sprintf("%d gates applied", res.GatesApplied),
	}
	switch res.Verdict {
	case ec.Equivalent:
		out.Verdict = portfolio.Equivalent
	case ec.EquivalentUpToGlobalPhase:
		out.Verdict = portfolio.EquivalentUpToGlobalPhase
	case ec.NotEquivalent:
		out.Verdict = portfolio.NotEquivalent
		out.Counterexample = res.Counterexample
	case ec.TimedOut:
		switch res.Cause {
		case ec.CauseCancelled:
			out.Stop = portfolio.StopCancelled
		case ec.CauseNodeLimit:
			out.Stop = portfolio.StopNodeLimit
		case ec.CauseMemLimit:
			out.Stop = portfolio.StopMemLimit
			out.Err = res.Err
		case ec.CauseError:
			out.Stop = portfolio.StopError
			out.Err = res.Err
		default:
			out.Stop = portfolio.StopTimeout
		}
		out.Detail = res.Reason
	}
	return out
}

// raceEC runs the complete routine on o: the "alt" prover, whose scheme is
// Options.Strategy, and the body of the provers that pick their own.
func raceEC(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome {
	return ecOutcome(ec.Check(g1, g2, o.ECOptions()))
}

// raceConstruction runs the complete routine with the construction
// strategy — the "build and compare the complete functionality" baseline.
func raceConstruction(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome {
	o.Strategy = ec.Construction
	return raceEC(g1, g2, o)
}

// raceGateCost runs the complete routine with the gate-cost
// (compilation-flow) schedule, estimating the profile statically.  It
// self-selects: it runs only when the pair looks like a compilation flow —
// g2 at least twice as long as a non-empty g1, the shape on which the
// estimate pays off — and otherwise declines (StopError) so uncompiled
// pairs stay with the plain alternating prover.
func raceGateCost(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome {
	if len(g1.Gates) == 0 || len(g2.Gates) < 2*len(g1.Gates) {
		return portfolio.Outcome{Stop: portfolio.StopError, Detail: "no compilation blow-up"}
	}
	o.Strategy = ec.StrategyGateCost
	return raceEC(g1, g2, o)
}

// raceStab runs the polynomial-time stabilizer tableau checker
// (ec.StrategyStabilizer).  Before entering the race it runs the gate-set
// analyzer on both circuits; a non-Clifford gate anywhere means the prover
// declines immediately (StopError) at the cost of one early-exit scan, so
// universal-gate-set pairs see zero overhead from having stab in the race.
// On Clifford-only pairs it is complete in both phase conventions (the
// strict convention adds one basis-state phase anchor).
func raceStab(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome {
	angleTol := circuit.CliffordAngleTolerance(o.Tolerance)
	if !circuit.IsClifford(g1, angleTol) || !circuit.IsClifford(g2, angleTol) {
		return portfolio.Outcome{Stop: portfolio.StopError, Detail: "non-Clifford gate set"}
	}
	o.Strategy = ec.StrategyStabilizer
	return raceEC(g1, g2, o)
}

// raceSAT runs the SAT miter.  It only applies to classical reversible
// netlists (and pairs without an output permutation); elsewhere it reports
// StopError and leaves the race to the other provers.
func raceSAT(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome {
	if o.OutputPerm != nil {
		return portfolio.Outcome{Stop: portfolio.StopError, Detail: "output permutation unsupported"}
	}
	res, err := ecsat.Check(g1, g2, ecsat.Options{Context: o.Context})
	if err != nil {
		return portfolio.Outcome{Stop: portfolio.StopError, Err: err, Detail: err.Error()}
	}
	out := portfolio.Outcome{Detail: fmt.Sprintf("%d vars, %d clauses", res.Vars, res.Clauses)}
	switch res.Verdict {
	case ecsat.Equivalent:
		out.Verdict = portfolio.Equivalent
	case ecsat.NotEquivalent:
		out.Verdict = portfolio.NotEquivalent
		out.Counterexample = res.Counterexample
	default:
		if res.Cancelled {
			out.Stop = portfolio.StopCancelled
		} else {
			out.Stop = portfolio.StopInconclusive
			out.Detail = "conflict budget exhausted"
		}
	}
	return out
}

// raceZX runs the ZX-calculus rewriter: sound, incomplete, and only able to
// prove equivalence up to global phase.  In a strict race (UpToGlobalPhase
// unset) such a proof answers a weaker question than the one asked, so it
// is inconclusive, with the proof kept in the detail: only a strict verdict
// may win, whichever prover finishes first.
func raceZX(g1, g2 *circuit.Circuit, o Options) portfolio.Outcome {
	if o.OutputPerm != nil {
		return portfolio.Outcome{Stop: portfolio.StopError, Detail: "output permutation unsupported"}
	}
	res, err := zx.CheckCtx(o.Context, g1, g2)
	if err != nil {
		return portfolio.Outcome{Stop: portfolio.StopError, Err: err, Detail: err.Error()}
	}
	out := portfolio.Outcome{Detail: fmt.Sprintf("spiders %d -> %d", res.SpidersBefore, res.SpidersAfter)}
	switch {
	case res.Verdict == zx.EquivalentUpToPhase && o.UpToGlobalPhase:
		out.Verdict = portfolio.EquivalentUpToGlobalPhase
	case res.Verdict == zx.EquivalentUpToPhase:
		out.Stop = portfolio.StopInconclusive
		out.Detail = "equivalent up to global phase, not a strict proof; " + out.Detail
	case res.Cancelled:
		out.Stop = portfolio.StopCancelled
	default:
		out.Stop = portfolio.StopInconclusive
	}
	return out
}
