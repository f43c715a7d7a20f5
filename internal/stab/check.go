package stab

import (
	"context"
	"math/bits"
	"time"

	"qcec/internal/circuit"
)

// Verdict is the outcome of a tableau equivalence check.  The tableau
// tracks conjugation, which is blind to scalar factors, so the positive
// verdict is intrinsically up-to-global-phase; callers needing the strict
// phase convention resolve the residual scalar separately (internal/core
// runs the tableau after basis-state stimuli that agreed strictly).
type Verdict int

// Possible verdicts.
const (
	// EquivalentUpToPhase: the miter fixes all 2n generators, so the two
	// circuits are equal up to a global scalar — a complete proof in the
	// up-to-phase convention.
	EquivalentUpToPhase Verdict = iota
	// NotEquivalent: some generator maps to a different Pauli, so the
	// circuits differ by more than a scalar — definitive in both phase
	// conventions.
	NotEquivalent
	// Aborted: the context was cancelled or the deadline passed mid-check.
	Aborted
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case EquivalentUpToPhase:
		return "equivalent up to phase"
	case NotEquivalent:
		return "not equivalent"
	case Aborted:
		return "aborted"
	default:
		return "verdict(?)"
	}
}

// Result reports the outcome of a tableau check.
type Result struct {
	Verdict      Verdict
	GatesApplied int
	// Counterexample is a basis state on which the two circuits produce
	// measurably different outputs, when the mismatch shape admits one (a
	// purely diagonal discrepancy has none — every basis state agrees up to
	// phase, exactly as for the DD checker's probe).
	Counterexample *uint64
	// Mismatches counts the generators whose image missed their target.
	Mismatches int
}

// pollEvery bounds how many gates are applied between context polls: rows
// are cheap (a few machine words each), so a coarse poll interval keeps the
// cancellation latency in the microseconds without measurable overhead.
const pollEvery = 128

// Check decides whether the Clifford circuits lowered to ops1 and ops2 (on
// n qubits) are equivalent up to global phase, by conjugating the 2n Pauli
// generators through the miter W = G⁻¹·P⁻¹·G' (P the declared output
// relabeling, identity when outputPerm is nil) and testing that every image
// returns to the plain generator it started as.  W = scalar·I is exactly
// the condition G' = scalar·P·G.
//
// This orientation — G' first, the un-relabeling, then G inverted — is what
// makes the counterexample derivation sound: a basis state |x> satisfies
// W|x> ∝ |x> iff P⁻¹·G'|x> ∝ G|x>, so a Z-generator image that no basis
// state can be an eigenvector of certifies a concrete distinguishing input
// (see zCounterexample).
//
// The check honors the portfolio's cooperative-cancellation contract: ctx
// is polled between gates (a watchdog hard-limit cancellation arrives the
// same way), and a non-zero deadline is enforced on the same cadence.
func Check(ctx context.Context, deadline time.Time, n int, ops1, ops2 []circuit.CliffordGate, outputPerm []int) Result {
	t := New(n)
	res := Result{}
	apply := func(g circuit.CliffordGate) bool {
		t.Apply(g)
		res.GatesApplied++
		if res.GatesApplied%pollEvery == 0 {
			if ctx != nil && ctx.Err() != nil {
				return false
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return false
			}
		}
		return true
	}
	for _, g := range ops2 {
		if !apply(g) {
			res.Verdict = Aborted
			return res
		}
	}
	if outputPerm != nil {
		applyPermInverse(t, outputPerm)
	}
	for i := len(ops1) - 1; i >= 0; i-- {
		if !apply(ops1[i].Inverse()) {
			res.Verdict = Aborted
			return res
		}
	}
	classify(t, &res)
	return res
}

// applyPermInverse conjugates the tableau by P⁻¹, where P is the wire
// relabeling with P·X_q·P† = X_{perm[q]}, by decomposing the inverse
// permutation π = perm⁻¹ into transpositions cycle by cycle — (c₀ c₁ … c_k)
// realized as SWAP(c₀,c₁), SWAP(c₀,c₂), …, SWAP(c₀,c_k).
func applyPermInverse(t *Tableau, perm []int) {
	inv := circuit.InversePermutation(perm)
	seen := make([]bool, len(inv))
	for c0 := range inv {
		if seen[c0] || inv[c0] == c0 {
			seen[c0] = true
			continue
		}
		for c := inv[c0]; c != c0; c = inv[c] {
			seen[c] = true
			t.applySwap(c0, c)
		}
		seen[c0] = true
	}
}

// classify compares every generator image against the plain generator it
// started as and, on mismatch, derives a counterexample basis state where
// one exists.
func classify(t *Tableau, res *Result) {
	n := t.N()
	for q := 0; q < n; q++ {
		if !t.rowIs(q, q, true) {
			res.Mismatches++
		}
		if !t.rowIs(n+q, q, false) {
			res.Mismatches++
			if res.Counterexample == nil {
				res.Counterexample = zCounterexample(t, n+q, q)
			}
		}
	}
	if res.Mismatches == 0 {
		res.Verdict = EquivalentUpToPhase
		return
	}
	res.Verdict = NotEquivalent
}

// zCounterexample derives a distinguishing basis input from a mismatched
// Z-generator image W·Z_q·W† = P ≠ Z_q of the miter W = G⁻¹·P⁻¹·G'.  A
// basis state |x> fails to distinguish the circuits only if W|x> ∝ |x>,
// which forces |x> to be a (-1)^{x_q}-eigenvector of P (apply W·Z_q = P·W
// to |x>).  Three shapes arise:
//
//   - P has an X component: no Z-basis state is an eigenvector of P at all,
//     so every basis state is a counterexample — |0…0> serves.
//   - P = -Z_S (pure Z, sign flipped): |0…0> would need eigenvalue +1 but
//     -Z_S|0…0> = -|0…0> — |0…0> again.
//   - P = +Z_S with the wrong support S: |x> is fixed only when
//     parity(x·S) = x_q, so a single bit from the symmetric difference of S
//     and {q} breaks the equality and distinguishes.
func zCounterexample(t *Tableau, row, tq int) *uint64 {
	base := row * t.w
	for k := 0; k < t.w; k++ {
		if t.x[base+k] != 0 {
			ce := uint64(0)
			return &ce
		}
	}
	if t.v[row] != 0 {
		ce := uint64(0)
		return &ce
	}
	for k := 0; k < t.w; k++ {
		var exp uint64
		if k == tq>>6 {
			exp = 1 << uint(tq&63)
		}
		diff := t.z[base+k] ^ exp
		if diff == 0 {
			continue
		}
		q := k*64 + bits.TrailingZeros64(diff)
		if q < t.n && q < 64 {
			ce := uint64(1) << uint(q)
			return &ce
		}
		// Differing bit beyond the uint64 stimulus range (>64 qubits): no
		// representable counterexample index; fall through to nil.
		return nil
	}
	return nil
}
