package portfolio

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/ecsat"
	"qcec/internal/resource"
	"qcec/internal/zx"
)

// Config parameterizes the standard provers built by FromNames.
type Config struct {
	// R is the simulation prefilter's stimulus count (default core.DefaultR).
	R int
	// Seed drives the prefilter's stimulus selection.
	Seed int64
	// SimParallel is the prefilter's worker count (0 or 1 = sequential).
	SimParallel int
	// Strategy selects the alternating scheme of the "alt" prover
	// (default ec.Proportional).
	Strategy ec.Strategy
	// ECTimeout is the private wall-clock bound of each complete DD prover
	// (0 = none; the portfolio context still cancels them).
	ECTimeout time.Duration
	// ECNodeLimit bounds each DD prover's live nodes (0 = none).
	ECNodeLimit int
	// SATConflictBudget bounds the SAT prover's effort (0 = unlimited).
	SATConflictBudget int64
	// UpToGlobalPhase accepts a scalar factor between the circuits.
	UpToGlobalPhase bool
	// OutputPerm declares an output relabeling (see ec.Options.OutputPerm).
	// Provers with no permutation notion (sat, zx) decline when it is set.
	OutputPerm []int
	// Tolerance is the DD weight tolerance (0 = default).
	Tolerance float64
	// CostProfile is the native per-gate compilation cost profile of the
	// pair (g1 gate i lowered to CostProfile[i] gates of g2); when set, the
	// gatecost prover uses it directly instead of the static estimate.  See
	// ec.Options.CostProfile.
	CostProfile []int
}

// degraded derives the conservative fallback configuration used when a
// crashed prover is retried (Options.RetryCrashed): sequential simulation
// and a reduced node budget (ec.DegradedNodeLimit) so the retry cannot
// repeat a resource blow-up.
func (c Config) degraded() Config {
	d := c
	d.SimParallel = 0
	d.ECNodeLimit = ec.DegradedNodeLimit(d.ECNodeLimit)
	return d
}

// ProverNames lists the selectable standard provers in canonical order.
var ProverNames = []string{"sim", "dd", "alt", "gatecost", "sat", "zx", "stab"}

// FromNames builds the named subset of the standard provers:
//
//	sim — the paper's simulation prefilter (random basis-state runs)
//	dd  — complete DD check, construction strategy (build and compare)
//	alt — complete DD check, alternating scheme (cfg.Strategy)
//	gatecost — complete DD check, gate-cost schedule (compiled pairs only)
//	sat — SAT miter (classical reversible netlists only)
//	zx  — ZX-calculus rewriting (sound, incomplete, up to phase)
//	stab — polynomial-time stabilizer tableau (Clifford-only pairs)
func FromNames(names []string, cfg Config) ([]Prover, error) {
	dcfg := cfg.degraded()
	withDegraded := func(p, fallback Prover) Prover {
		p.Degraded = fallback.Run
		return p
	}
	provers := make([]Prover, 0, len(names))
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		switch name {
		case "sim":
			provers = append(provers, withDegraded(SimProver(cfg), SimProver(dcfg)))
		case "dd":
			provers = append(provers, withDegraded(DDProver(cfg), DDProver(dcfg)))
		case "alt":
			provers = append(provers, withDegraded(AlternatingProver(cfg), AlternatingProver(dcfg)))
		case "gatecost":
			provers = append(provers, withDegraded(GateCostProver(cfg), GateCostProver(dcfg)))
		case "sat":
			provers = append(provers, SATProver(cfg))
		case "zx":
			provers = append(provers, ZXProver(cfg))
		case "stab":
			provers = append(provers, StabProver(cfg))
		case "":
			continue
		default:
			return nil, fmt.Errorf("portfolio: unknown prover %q (have %s)",
				name, strings.Join(ProverNames, ","))
		}
	}
	if len(provers) == 0 {
		return nil, fmt.Errorf("portfolio: no provers selected")
	}
	return provers, nil
}

// SimProver wraps the paper's simulation prefilter (internal/core with the
// complete routine skipped).  It proves non-equivalence with a
// counterexample, proves equivalence only when the stimuli are exhaustive,
// and is otherwise inconclusive.
func SimProver(cfg Config) Prover {
	return Prover{
		Name: "sim",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			rep := core.Check(g1, g2, core.Options{
				Context:         ctx,
				R:               cfg.R,
				Seed:            cfg.Seed,
				Parallel:        cfg.SimParallel,
				SkipEC:          true,
				UpToGlobalPhase: cfg.UpToGlobalPhase,
				OutputPerm:      cfg.OutputPerm,
				Tolerance:       cfg.Tolerance,
			})
			ddStats := rep.DD
			if rep.Err != nil {
				// Worker panic isolated by core: degraded, not definitive.
				return Outcome{Stop: StopError, Err: rep.Err, Detail: rep.Err.Error(), DD: &ddStats}
			}
			out := Outcome{Detail: fmt.Sprintf("%d sims", rep.NumSims), DD: &ddStats}
			switch rep.Verdict {
			case core.NotEquivalent:
				out.Verdict = NotEquivalent
				if rep.Counterexample != nil {
					ce := rep.Counterexample.Input
					out.Counterexample = &ce
					out.Detail = fmt.Sprintf("%d sims, counterexample |%b>", rep.NumSims, ce)
				}
			case core.Equivalent:
				out.Verdict = Equivalent
				out.Detail = fmt.Sprintf("%d sims (exhaustive)", rep.NumSims)
			case core.EquivalentUpToGlobalPhase:
				out.Verdict = EquivalentUpToGlobalPhase
			default: // ProbablyEquivalent: not definitive
				if rep.Cancelled {
					out.Stop = StopCancelled
					var mle *resource.MemoryLimitError
					if errors.As(rep.CancelCause, &mle) {
						out.Stop = StopMemLimit
						out.Err = mle
					}
				} else {
					out.Stop = StopInconclusive
					out.Detail = fmt.Sprintf("%d sims agreed (not a proof)", rep.NumSims)
				}
			}
			return out
		},
	}
}

// ecOutcome translates a complete-routine result into a portfolio outcome.
func ecOutcome(res ec.Result) Outcome {
	ddStats := res.DD
	out := Outcome{
		PeakNodes: res.PeakNodes,
		DD:        &ddStats,
		Detail:    fmt.Sprintf("%d gates applied", res.GatesApplied),
	}
	switch res.Verdict {
	case ec.Equivalent:
		out.Verdict = Equivalent
	case ec.EquivalentUpToGlobalPhase:
		out.Verdict = EquivalentUpToGlobalPhase
	case ec.NotEquivalent:
		out.Verdict = NotEquivalent
		out.Counterexample = res.Counterexample
	case ec.TimedOut:
		switch res.Cause {
		case ec.CauseCancelled:
			out.Stop = StopCancelled
		case ec.CauseNodeLimit:
			out.Stop = StopNodeLimit
		case ec.CauseMemLimit:
			out.Stop = StopMemLimit
			out.Err = res.Err
		case ec.CauseError:
			out.Stop = StopError
			out.Err = res.Err
		default:
			out.Stop = StopTimeout
		}
		out.Detail = res.Reason
	}
	return out
}

// DDProver wraps the complete DD routine with the construction strategy —
// the "build and compare the complete functionality" baseline.
func DDProver(cfg Config) Prover {
	return ecProver("dd", ec.Construction, cfg)
}

// AlternatingProver wraps the complete DD routine with the configured
// alternating scheme (default ec.Proportional).
func AlternatingProver(cfg Config) Prover {
	return ecProver("alt", cfg.Strategy, cfg)
}

// GateCostProver wraps the complete DD routine with the gate-cost
// (compilation-flow) schedule.  It self-selects: with a native profile
// attached (cfg.CostProfile) it always runs; without one it runs only when
// the pair looks like a compilation flow — g2 at least twice as long as a
// non-empty g1, the shape on which the static estimate pays off — and
// otherwise declines (StopError) so uncompiled pairs stay with the plain
// alternating prover.
func GateCostProver(cfg Config) Prover {
	return Prover{
		Name: "gatecost",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			if cfg.CostProfile == nil && (len(g1.Gates) == 0 || len(g2.Gates) < 2*len(g1.Gates)) {
				return Outcome{Stop: StopError, Detail: "no cost profile and no compilation blow-up"}
			}
			return ecOutcome(ec.Check(g1, g2, ec.Options{
				Strategy:        ec.StrategyGateCost,
				CostProfile:     cfg.CostProfile,
				Context:         ctx,
				Timeout:         cfg.ECTimeout,
				NodeLimit:       cfg.ECNodeLimit,
				UpToGlobalPhase: cfg.UpToGlobalPhase,
				OutputPerm:      cfg.OutputPerm,
				Tolerance:       cfg.Tolerance,
			}))
		},
	}
}

func ecProver(name string, strategy ec.Strategy, cfg Config) Prover {
	return Prover{
		Name: name,
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			return ecOutcome(ec.Check(g1, g2, ec.Options{
				Strategy:        strategy,
				CostProfile:     cfg.CostProfile,
				Context:         ctx,
				Timeout:         cfg.ECTimeout,
				NodeLimit:       cfg.ECNodeLimit,
				UpToGlobalPhase: cfg.UpToGlobalPhase,
				OutputPerm:      cfg.OutputPerm,
				Tolerance:       cfg.Tolerance,
			}))
		},
	}
}

// StabProver wraps the polynomial-time stabilizer tableau checker
// (ec.StrategyStabilizer).  Before entering the race it runs the gate-set
// analyzer on both circuits; a non-Clifford gate anywhere means the prover
// declines immediately (StopError) at the cost of one early-exit scan, so
// universal-gate-set pairs see zero overhead from having stab in the
// portfolio.  On Clifford-only pairs it is complete in both phase
// conventions (the strict convention adds one basis-state phase anchor).
func StabProver(cfg Config) Prover {
	return Prover{
		Name: "stab",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			angleTol := circuit.CliffordAngleTolerance(cfg.Tolerance)
			if !circuit.IsClifford(g1, angleTol) || !circuit.IsClifford(g2, angleTol) {
				return Outcome{Stop: StopError, Detail: "non-Clifford gate set"}
			}
			return ecOutcome(ec.Check(g1, g2, ec.Options{
				Strategy:        ec.StrategyStabilizer,
				Context:         ctx,
				Timeout:         cfg.ECTimeout,
				NodeLimit:       cfg.ECNodeLimit,
				UpToGlobalPhase: cfg.UpToGlobalPhase,
				OutputPerm:      cfg.OutputPerm,
				Tolerance:       cfg.Tolerance,
			}))
		},
	}
}

// SATProver wraps the SAT miter.  It only applies to classical reversible
// netlists (and pairs without an output permutation); elsewhere it reports
// StopError and leaves the race to the other provers.
func SATProver(cfg Config) Prover {
	return Prover{
		Name: "sat",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			if cfg.OutputPerm != nil {
				return Outcome{Stop: StopError, Detail: "output permutation unsupported"}
			}
			res, err := ecsat.Check(g1, g2, ecsat.Options{
				ConflictBudget: cfg.SATConflictBudget,
				Context:        ctx,
			})
			if err != nil {
				return Outcome{Stop: StopError, Err: err, Detail: err.Error()}
			}
			out := Outcome{Detail: fmt.Sprintf("%d vars, %d clauses", res.Vars, res.Clauses)}
			switch res.Verdict {
			case ecsat.Equivalent:
				out.Verdict = Equivalent
			case ecsat.NotEquivalent:
				out.Verdict = NotEquivalent
				out.Counterexample = res.Counterexample
			default:
				if res.Cancelled {
					out.Stop = StopCancelled
				} else {
					out.Stop = StopInconclusive
					out.Detail = "conflict budget exhausted"
				}
			}
			return out
		},
	}
}

// ZXProver wraps the ZX-calculus rewriter: sound, incomplete, and only able
// to prove equivalence up to global phase.
func ZXProver(cfg Config) Prover {
	return Prover{
		Name: "zx",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			if cfg.OutputPerm != nil {
				return Outcome{Stop: StopError, Detail: "output permutation unsupported"}
			}
			res, err := zx.CheckCtx(ctx, g1, g2)
			if err != nil {
				return Outcome{Stop: StopError, Err: err, Detail: err.Error()}
			}
			out := Outcome{Detail: fmt.Sprintf("spiders %d -> %d", res.SpidersBefore, res.SpidersAfter)}
			if res.Verdict == zx.EquivalentUpToPhase {
				out.Verdict = EquivalentUpToGlobalPhase
			} else if res.Cancelled {
				out.Stop = StopCancelled
			} else {
				out.Stop = StopInconclusive
			}
			return out
		},
	}
}
