package opt

import "qcec/internal/circuit"

// Commutation-aware cancellation: an inverse pair separated by gates that
// commute with it still cancels (e.g. the CX pair in CX·Z(ctl)·CX).  This is
// the optimization class that plain peephole matching misses and that makes
// real optimizers strong — and, when buggy, a prime source of the errors the
// paper's flow detects.

// isDiagonalKind reports whether the gate's single-qubit operation is
// diagonal in the computational basis (controlled versions remain diagonal).
func isDiagonalKind(k circuit.Kind) bool {
	switch k {
	case circuit.Z, circuit.S, circuit.Sdg, circuit.T, circuit.Tdg, circuit.RZ, circuit.P, circuit.I:
		return true
	}
	return false
}

// isXAxisKind reports whether the operation is an X-axis rotation (commutes
// with X conjugation and with being the target of a CX).
func isXAxisKind(k circuit.Kind) bool {
	switch k {
	case circuit.X, circuit.SX, circuit.SXdg, circuit.RX, circuit.I:
		return true
	}
	return false
}

// isPlainCX reports whether g is an uncontrolled-beyond-one CX.
func isPlainCX(g circuit.Gate) bool {
	return g.Kind == circuit.X && len(g.Controls) == 1 && !g.Controls[0].Neg
}

// qubitsDisjoint reports whether the gates share no qubit.
func qubitsDisjoint(a, b circuit.Gate) bool {
	bq := map[int]bool{}
	for _, q := range b.Qubits() {
		bq[q] = true
	}
	for _, q := range a.Qubits() {
		if bq[q] {
			return false
		}
	}
	return true
}

// commutes reports (conservatively) whether two gates commute.  False
// negatives only cost optimization opportunities, never correctness.
func commutes(a, b circuit.Gate) bool {
	if qubitsDisjoint(a, b) {
		return true
	}
	if a.Kind == circuit.SWAP || b.Kind == circuit.SWAP {
		return false
	}
	// Diagonal gates commute with each other regardless of overlap.
	if isDiagonalKind(a.Kind) && isDiagonalKind(b.Kind) {
		return true
	}
	// Same-axis single-qubit rotations on the same wire commute.
	if len(a.Controls) == 0 && len(b.Controls) == 0 && a.Target == b.Target &&
		isXAxisKind(a.Kind) && isXAxisKind(b.Kind) {
		return true
	}
	if isPlainCX(a) && isPlainCX(b) {
		ac, at := a.Controls[0].Qubit, a.Target
		bc, bt := b.Controls[0].Qubit, b.Target
		// CXs commute unless one's target is the other's control.
		return at != bc && ac != bt
	}
	// CX vs single-qubit gate.
	cxVs1q := func(cx, g circuit.Gate) (bool, bool) {
		if !isPlainCX(cx) || len(g.Controls) != 0 {
			return false, false
		}
		if g.Target == cx.Controls[0].Qubit {
			return true, isDiagonalKind(g.Kind)
		}
		if g.Target == cx.Target {
			return true, isXAxisKind(g.Kind)
		}
		return false, false
	}
	if applies, ok := cxVs1q(a, b); applies {
		return ok
	}
	if applies, ok := cxVs1q(b, a); applies {
		return ok
	}
	// Diagonal controlled gate vs single-qubit diagonal on any of its wires.
	if isDiagonalKind(a.Kind) && isDiagonalKind(b.Kind) {
		return true
	}
	return false
}

// commuteWindow bounds how far cancellation looks back through commuting
// gates (keeps the pass O(m·K)).
const commuteWindow = 24

// commuteCancelPass cancels inverse pairs separated by commuting gates.
// It compacts gates in place after its scan.
func commuteCancelPass(_ int, gates []circuit.Gate, stop func() bool) ([]circuit.Gate, int) {
	live := make([]bool, len(gates))
	for i := range live {
		live[i] = true
	}
	cancelled := 0
	for i := range gates {
		if !live[i] {
			continue
		}
		g := gates[i]
		steps := 0
		for j := i - 1; j >= 0 && steps < commuteWindow; j-- {
			if stop() {
				return gates, 0
			}
			if !live[j] {
				continue
			}
			steps++
			h := gates[j]
			if sameQubits(h, g) && isInversePair(h, g) {
				live[i], live[j] = false, false
				cancelled++
				break
			}
			if !commutes(g, h) {
				break
			}
		}
	}
	if cancelled == 0 {
		return gates, 0
	}
	out := gates[:0]
	for i, g := range gates {
		if live[i] {
			out = append(out, g)
		}
	}
	return out, cancelled
}
