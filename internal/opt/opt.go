// Package opt implements peephole circuit optimizations — the "optimization"
// stage of the design flow (paper refs [11], [12]).  Optimized circuits are
// one of the alternative realizations G' the paper's flow verifies, and a
// buggy optimizer is one of the error sources it detects.
//
// Passes:
//
//   - inverse-pair cancellation (H·H, CX·CX, T·T†, generally g·g⁻¹ on
//     identical qubits with nothing in between on those qubits),
//   - rotation fusion (adjacent same-axis rotations merge; angles that sum
//     to a multiple of the period vanish),
//   - Hadamard rewrites (H·X·H → Z, H·Z·H → X, H·S·H... is not Clifford-safe
//     and is left alone).
//
// All passes are applied to a fixpoint.
package opt

import (
	"context"
	"math"

	"qcec/internal/circuit"
)

// Options selects the passes to run; the zero value enables everything.
type Options struct {
	DisableCancellation  bool
	DisableRotationMerge bool
	DisableHRewrites     bool
	DisableCommutation   bool
}

// Stats reports what the optimizer did.
type Stats struct {
	GatesBefore    int
	GatesAfter     int
	CancelledPairs int
	MergedRotants  int
	Rewrites       int
	Passes         int
}

// Optimize returns an optimized copy of the circuit together with
// statistics.  The result is strictly equivalent to the input.
func Optimize(c *circuit.Circuit, opts Options) (*circuit.Circuit, Stats) {
	out, stats, _ := OptimizeCtx(nil, c, opts)
	return out, stats
}

// pollEvery is how many loop steps a pass takes between polls of its
// context.
const pollEvery = 1 << 10

// OptimizeCtx is Optimize under cooperative cancellation: the passes poll
// ctx as they go, and once one sees it cancelled OptimizeCtx stops and
// returns c itself with ctx's error.  A nil ctx disables cancellation.
func OptimizeCtx(ctx context.Context, c *circuit.Circuit, opts Options) (*circuit.Circuit, Stats, error) {
	stats := Stats{GatesBefore: c.NumGates()}
	gates := append([]circuit.Gate(nil), c.Gates...)
	// stop is called once per loop step of a pass and polls ctx every
	// pollEvery steps; once it has seen ctx cancelled it keeps saying so,
	// and a pass that hears it returns at once.
	steps, stopped := 0, false
	stop := func() bool {
		steps++
		stopped = stopped || steps%pollEvery == 0 && ctx != nil && ctx.Err() != nil
		return stopped
	}
	passes := []struct {
		off   bool
		run   func(int, []circuit.Gate, func() bool) ([]circuit.Gate, int)
		count *int
	}{
		{opts.DisableCancellation, cancelPass, &stats.CancelledPairs},
		{opts.DisableRotationMerge, mergePass, &stats.MergedRotants},
		{opts.DisableHRewrites, hRewritePass, &stats.Rewrites},
		{opts.DisableCommutation, commuteCancelPass, &stats.CancelledPairs},
	}
	for changed := true; changed && !stopped && stats.Passes <= 100; {
		stats.Passes++
		changed = false
		for _, p := range passes {
			if !p.off && !stopped {
				var n int
				gates, n = p.run(c.N, gates, stop)
				*p.count += n
				changed = changed || n > 0
			}
		}
	}
	if stopped {
		return c, stats, ctx.Err()
	}
	out := circuit.New(c.N, c.Name+"_opt")
	for _, g := range gates {
		out.Add(g)
	}
	stats.GatesAfter = out.NumGates()
	return out, stats, nil
}

// sameQubits reports whether two gates act on exactly the same qubit set.
func sameQubits(a, b circuit.Gate) bool {
	qa, qb := a.Qubits(), b.Qubits()
	if len(qa) != len(qb) {
		return false
	}
	for i := range qa {
		if qa[i] != qb[i] {
			return false
		}
	}
	return true
}

// isInversePair reports whether b undoes a exactly.
func isInversePair(a, b circuit.Gate) bool {
	return b.Equal(a.Inverse())
}

// stacks tracks, per qubit, the indices of live output gates touching it;
// the top of each stack is the adjacent predecessor candidate.
type stacks struct {
	perQubit [][]int
}

func newStacks(n int) *stacks {
	return &stacks{perQubit: make([][]int, n)}
}

// top returns the common adjacent predecessor of the given qubits, or -1 if
// the most recent gate differs between them.
func (s *stacks) top(qs []int) int {
	cand := -1
	for i, q := range qs {
		st := s.perQubit[q]
		if len(st) == 0 {
			return -1
		}
		t := st[len(st)-1]
		if i == 0 {
			cand = t
		} else if t != cand {
			return -1
		}
	}
	return cand
}

func (s *stacks) push(qs []int, idx int) {
	for _, q := range qs {
		s.perQubit[q] = append(s.perQubit[q], idx)
	}
}

func (s *stacks) pop(qs []int) {
	for _, q := range qs {
		st := s.perQubit[q]
		s.perQubit[q] = st[:len(st)-1]
	}
}

// cancelPass removes adjacent inverse pairs in a single scan.  Like every
// pass, it returns its input with a count of 0 when stop reports a
// cancellation.
func cancelPass(n int, gates []circuit.Gate, stop func() bool) ([]circuit.Gate, int) {
	out := make([]circuit.Gate, 0, len(gates))
	live := make([]bool, 0, len(gates))
	st := newStacks(n)
	cancelled := 0
	for _, g := range gates {
		if stop() {
			return gates, 0
		}
		qs := g.Qubits()
		if cand := st.top(qs); cand >= 0 && sameQubits(out[cand], g) && isInversePair(out[cand], g) {
			live[cand] = false
			st.pop(qs)
			cancelled++
			continue
		}
		out = append(out, g)
		live = append(live, true)
		st.push(qs, len(out)-1)
	}
	result := out[:0]
	for i, g := range out {
		if live[i] {
			result = append(result, g)
		}
	}
	return result, cancelled
}

// rotationPeriod returns the angle period after which the gate kind is the
// identity, or 0 for non-rotation kinds.
func rotationPeriod(k circuit.Kind) float64 {
	switch k {
	case circuit.RX, circuit.RY, circuit.RZ:
		return 4 * math.Pi
	case circuit.P:
		return 2 * math.Pi
	default:
		return 0
	}
}

// mergePass fuses adjacent same-kind rotations on identical qubits.
func mergePass(n int, gates []circuit.Gate, stop func() bool) ([]circuit.Gate, int) {
	out := make([]circuit.Gate, 0, len(gates))
	live := make([]bool, 0, len(gates))
	st := newStacks(n)
	merged := 0
	const zeroTol = 1e-12
	for _, g := range gates {
		if stop() {
			return gates, 0
		}
		qs := g.Qubits()
		if rotationPeriod(g.Kind) > 0 {
			if cand := st.top(qs); cand >= 0 {
				prev := out[cand]
				if prev.Kind == g.Kind && sameQubits(prev, g) && prev.Target == g.Target &&
					controlsEqual(prev.Controls, g.Controls) {
					period := rotationPeriod(g.Kind)
					sum := math.Mod(prev.Params[0]+g.Params[0], period)
					merged++
					if math.Abs(sum) < zeroTol || math.Abs(math.Abs(sum)-period) < zeroTol {
						live[cand] = false
						st.pop(qs)
						continue
					}
					out[cand].Params = []float64{sum}
					continue
				}
			}
		}
		out = append(out, g)
		live = append(live, true)
		st.push(qs, len(out)-1)
	}
	result := out[:0]
	for i, g := range out {
		if live[i] {
			result = append(result, g)
		}
	}
	return result, merged
}

func controlsEqual(a, b []circuit.Control) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hRewritePass replaces uncontrolled H·X·H with Z and H·Z·H with X.
func hRewritePass(n int, gates []circuit.Gate, stop func() bool) ([]circuit.Gate, int) {
	out := make([]circuit.Gate, 0, len(gates))
	st := newStacks(n)
	rewrites := 0
	isPlainH := func(g circuit.Gate) bool {
		return g.Kind == circuit.H && len(g.Controls) == 0
	}
	for _, g := range gates {
		if stop() {
			return gates, 0
		}
		qs := g.Qubits()
		if isPlainH(g) && len(out) >= 2 {
			if c1 := st.top(qs); c1 == len(out)-1 && c1 >= 1 {
				mid := out[c1]
				if (mid.Kind == circuit.X || mid.Kind == circuit.Z) &&
					len(mid.Controls) == 0 && mid.Target == g.Target {
					if c0 := c1 - 1; isPlainH(out[c0]) && out[c0].Target == g.Target {
						// Check H is truly adjacent to mid on this qubit.
						stq := st.perQubit[g.Target]
						if len(stq) >= 2 && stq[len(stq)-2] == c0 {
							newKind := circuit.Z
							if mid.Kind == circuit.Z {
								newKind = circuit.X
							}
							st.pop(qs) // mid
							st.pop(qs) // first H
							out = out[:c0]
							out = append(out, circuit.Gate{Kind: newKind, Target: g.Target, Target2: -1})
							st.push(qs, len(out)-1)
							rewrites++
							continue
						}
					}
				}
			}
		}
		out = append(out, g)
		st.push(qs, len(out)-1)
	}
	return out, rewrites
}
