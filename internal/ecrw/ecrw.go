// Package ecrw implements rewriting-based equivalence checking in the style
// of the paper's reference [16] (Yamashita & Markov, "Fast
// equivalence-checking for quantum circuits"): build the miter circuit
// G'·G⁻¹ and reduce it with local rewrite rules (inverse-pair cancellation,
// rotation fusion, Hadamard conjugation).  If the miter reduces to the empty
// circuit the pair is proven equivalent; otherwise the method is
// inconclusive and a complete checker must take over.
//
// This sound-but-incomplete prover is the "rewrite" prover of core.Check's
// race: it is extremely fast on pairs that differ by peephole-style
// recompilation (the common case in practice) and never wrong, but
// structurally different realizations of the same function (e.g. a
// synthesized netlist versus its mapped form) defeat it — exactly the gap
// the paper's simulation-first flow fills from the other side.
package ecrw

import (
	"context"
	"fmt"

	"qcec/internal/circuit"
	"qcec/internal/opt"
)

// Verdict is the outcome of a rewriting check.
type Verdict int

// Possible outcomes.  The method cannot prove non-equivalence: a miter that
// does not fully reduce is merely Inconclusive.
const (
	Equivalent Verdict = iota
	Inconclusive
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result reports the outcome and the reduction achieved.
type Result struct {
	Verdict        Verdict
	MiterGates     int // gates in G'·G⁻¹ before reduction
	ResidualGates  int // gates left after reduction
	RewritePasses  int
	CancelledPairs int
	Cancelled      bool // Inconclusive because the context was cancelled
}

// Check builds and reduces the miter.  It returns Equivalent only when the
// miter vanishes completely.
func Check(g1, g2 *circuit.Circuit) Result {
	return CheckCtx(nil, g1, g2)
}

// CheckCtx is Check under cooperative cancellation: the reduction polls ctx
// as it goes and stops early when it is cancelled, yielding Inconclusive
// with Result.Cancelled set.  A nil ctx disables cancellation.
func CheckCtx(ctx context.Context, g1, g2 *circuit.Circuit) Result {
	if g1.N != g2.N {
		return Result{Verdict: Inconclusive}
	}
	miter := g2.Clone()
	miter.Name = "miter"
	miter.Append(g1.Inverse())
	reduced, stats, err := opt.OptimizeCtx(ctx, miter, opt.Options{})
	res := Result{
		Verdict:        Inconclusive,
		MiterGates:     miter.NumGates(),
		ResidualGates:  reduced.NumGates(),
		RewritePasses:  stats.Passes,
		CancelledPairs: stats.CancelledPairs,
		Cancelled:      err != nil,
	}
	if res.ResidualGates == 0 {
		res.Verdict = Equivalent
	}
	return res
}
