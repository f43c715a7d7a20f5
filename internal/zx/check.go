package zx

import (
	"context"
	"fmt"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/decompose"
)

// Verdict is the outcome of a ZX rewriting check.
type Verdict int

// Possible outcomes.  Like all pure-rewriting checkers the method cannot
// prove non-equivalence.
const (
	EquivalentUpToPhase Verdict = iota
	Inconclusive
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case EquivalentUpToPhase:
		return "equivalent up to global phase"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result reports the outcome and the reduction statistics.
type Result struct {
	Verdict       Verdict
	SpidersBefore int
	SpidersAfter  int
	Cancelled     bool // Inconclusive because the context was cancelled
	Runtime       time.Duration
}

// Check translates the miter G'·G⁻¹ into a ZX-diagram, fully reduces it,
// and reports equivalence (up to global phase) if the diagram collapses to
// the identity wiring.  Inputs with multi-controlled gates or controlled
// SWAPs are lowered to the CX level first.
func Check(g1, g2 *circuit.Circuit) (Result, error) {
	return CheckCtx(nil, g1, g2)
}

// CheckCtx is Check under cooperative cancellation: the simplification loop
// polls ctx between rounds and stops early when it is cancelled, yielding
// Inconclusive with Result.Cancelled set.  A nil ctx disables cancellation.
func CheckCtx(ctx context.Context, g1, g2 *circuit.Circuit) (Result, error) {
	start := time.Now()
	if g1.N != g2.N {
		return Result{Verdict: Inconclusive, Runtime: time.Since(start)}, nil
	}
	miter := lower(g2).Clone()
	miter.Append(lower(g1).Inverse())

	g, ins, outs, err := FromCircuit(miter)
	if err != nil {
		return Result{}, err
	}
	if err := g.Err(); err != nil {
		return Result{}, err
	}
	if ctx != nil {
		g.SetCancel(func() bool { return ctx.Err() != nil })
	}
	res := Result{SpidersBefore: g.NumSpiders()}
	stopped := g.Simplify()
	if err := g.Err(); err != nil {
		// A structural violation surfaced mid-rewrite: the diagram is no
		// longer meaningful, so report the error rather than a verdict.
		return Result{}, err
	}
	res.SpidersAfter = g.NumSpiders()
	if isIdentityWiring(g, ins, outs) {
		// A fully reduced identity is a proof even if the context was
		// cancelled while the last round completed.
		res.Verdict = EquivalentUpToPhase
	} else {
		// Cancelled only when the hook cut the reduction short: a
		// reduction that reached its fixpoint is inconclusive on its own
		// merits, whatever the context did afterwards.
		res.Verdict = Inconclusive
		res.Cancelled = stopped
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// lower strips constructs the translator cannot express.
func lower(c *circuit.Circuit) *circuit.Circuit {
	needs := false
	for _, g := range c.Gates {
		if len(g.Controls) > 1 || (len(g.Controls) == 1 && g.Kind != circuit.X && g.Kind != circuit.Z) {
			needs = true
			break
		}
		for _, ctl := range g.Controls {
			if ctl.Neg {
				needs = true
			}
		}
	}
	if !needs {
		return c
	}
	return decompose.Circuit(c, decompose.LevelCX)
}

// isIdentityWiring reports whether the reduced diagram is exactly the
// identity: no spiders left, and input q connected to output q by a single
// plain edge.
func isIdentityWiring(g *Graph, ins, outs []int) bool {
	if g.NumSpiders() != 0 {
		return false
	}
	for q := range ins {
		if len(g.nbr[ins[q]]) != 1 || !g.nbr[ins[q]][outs[q]] {
			return false
		}
		e := g.edgeBetween(ins[q], outs[q])
		if e == nil || e.plain != 1 || e.had != 0 {
			return false
		}
	}
	return true
}
