package stab

import (
	"context"
	"testing"
	"time"

	"qcec/internal/circuit"
)

func noDeadline() time.Time { return time.Time{} }

func TestCheckEquivalentPair(t *testing.T) {
	// G = H(0); CX(0,1)  vs  G' = H(0); CZ(0,1) conjugated into CX form.
	ops1 := []circuit.CliffordGate{
		gate1(circuit.CliffH, 0),
		gate2(circuit.CliffCX, 0, 1),
	}
	ops2 := []circuit.CliffordGate{
		gate1(circuit.CliffH, 0),
		gate1(circuit.CliffH, 1),
		gate2(circuit.CliffCZ, 0, 1),
		gate1(circuit.CliffH, 1),
	}
	res := Check(context.Background(), noDeadline(), 2, ops1, ops2, nil)
	if res.Verdict != EquivalentUpToPhase {
		t.Fatalf("want equivalent, got %v (%d mismatches)", res.Verdict, res.Mismatches)
	}
	if res.GatesApplied != len(ops1)+len(ops2) {
		t.Fatalf("GatesApplied = %d, want %d", res.GatesApplied, len(ops1)+len(ops2))
	}
}

func TestCheckDetectsExtraGate(t *testing.T) {
	base := []circuit.CliffordGate{
		gate1(circuit.CliffH, 0),
		gate2(circuit.CliffCX, 0, 1),
		gate1(circuit.CliffS, 1),
	}
	// Extra X before the common prefix: the miter is X_0 itself, whose
	// sign-flipped Z_0 image makes |00> a concrete distinguishing input.
	buggy := append([]circuit.CliffordGate{gate1(circuit.CliffX, 0)}, base...)
	res := Check(context.Background(), noDeadline(), 2, base, buggy, nil)
	if res.Verdict != NotEquivalent {
		t.Fatalf("want not equivalent, got %v", res.Verdict)
	}
	if res.Counterexample == nil || *res.Counterexample != 0 {
		t.Fatalf("want counterexample |00>, got %v", res.Counterexample)
	}
}

func TestCheckRelativePhaseHasNoBasisWitness(t *testing.T) {
	// Extra Z before the common gates: the miter is the pure-Z Pauli Z_1, so
	// G'|x> = ±G|x> on every basis input — no basis counterexample exists
	// and only X rows mismatch.
	base := []circuit.CliffordGate{
		gate1(circuit.CliffH, 0),
		gate2(circuit.CliffCX, 0, 1),
	}
	buggy := append([]circuit.CliffordGate{gate1(circuit.CliffZ, 1)}, base...)
	res := Check(context.Background(), noDeadline(), 2, base, buggy, nil)
	if res.Verdict != NotEquivalent {
		t.Fatalf("want not equivalent, got %v", res.Verdict)
	}
	if res.Counterexample != nil {
		t.Fatalf("relative-phase difference admits no basis counterexample, got |%b>", *res.Counterexample)
	}
}

func TestCheckCounterexampleWrongSupport(t *testing.T) {
	// G = CX(0,1) vs G' = CX(0,2): the miter maps Z_1 and Z_2 to Z products
	// with the wrong support, and the derived counterexample must actually
	// set a bit (the symmetric-difference qubit), distinguishing the pair.
	ops1 := []circuit.CliffordGate{gate2(circuit.CliffCX, 0, 1)}
	ops2 := []circuit.CliffordGate{gate2(circuit.CliffCX, 0, 2)}
	res := Check(context.Background(), noDeadline(), 3, ops1, ops2, nil)
	if res.Verdict != NotEquivalent {
		t.Fatalf("want not equivalent, got %v", res.Verdict)
	}
	if res.Counterexample == nil || *res.Counterexample == 0 {
		t.Fatalf("want a nonzero counterexample, got %v", res.Counterexample)
	}
	// On the derived input the two circuits' outputs must differ in qubit 1
	// or 2 (CX targets differ only when the control bit of the input is 1).
	if *res.Counterexample != 1 {
		t.Fatalf("want counterexample |001> (control set), got |%b>", *res.Counterexample)
	}
}

func TestCheckDiagonalMismatchHasNoCounterexample(t *testing.T) {
	// G = I vs G' = S: V = S is diagonal, every basis state agrees up to
	// phase, so no basis-state counterexample exists; only X rows mismatch.
	var ops1 []circuit.CliffordGate
	ops2 := []circuit.CliffordGate{gate1(circuit.CliffS, 0)}
	res := Check(context.Background(), noDeadline(), 1, ops1, ops2, nil)
	if res.Verdict != NotEquivalent {
		t.Fatalf("want not equivalent, got %v", res.Verdict)
	}
	if res.Counterexample != nil {
		t.Fatalf("diagonal difference admits no basis counterexample, got |%b>", *res.Counterexample)
	}
}

func TestCheckOutputPerm(t *testing.T) {
	// G = CX(0,1) vs G' = CX(0,1); SWAP(0,1): equivalent exactly under the
	// declared relabeling perm[q] = output wire of G' carrying G's wire q.
	ops1 := []circuit.CliffordGate{gate2(circuit.CliffCX, 0, 1)}
	ops2 := []circuit.CliffordGate{
		gate2(circuit.CliffCX, 0, 1),
		gate2(circuit.CliffSwap, 0, 1),
	}
	if res := Check(context.Background(), noDeadline(), 2, ops1, ops2, nil); res.Verdict != NotEquivalent {
		t.Fatalf("without perm: want not equivalent, got %v", res.Verdict)
	}
	if res := Check(context.Background(), noDeadline(), 2, ops1, ops2, []int{1, 0}); res.Verdict != EquivalentUpToPhase {
		t.Fatalf("with perm [1 0]: want equivalent, got %v", res.Verdict)
	}
}

func TestCheckGlobalPhaseInvisible(t *testing.T) {
	// X·Y·Z = iI: a pure global phase the tableau cannot see — the verdict is
	// equivalent-up-to-phase against the empty circuit, which is exactly why
	// the flow's strict mode runs the tableau only after stimuli agreed.
	ops2 := []circuit.CliffordGate{
		gate1(circuit.CliffZ, 0),
		gate1(circuit.CliffY, 0),
		gate1(circuit.CliffX, 0),
	}
	res := Check(context.Background(), noDeadline(), 1, nil, ops2, nil)
	if res.Verdict != EquivalentUpToPhase {
		t.Fatalf("want equivalent up to phase, got %v", res.Verdict)
	}
}

func TestCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Enough gates to cross the poll interval.
	ops := make([]circuit.CliffordGate, 4*pollEvery)
	for i := range ops {
		ops[i] = gate1(circuit.CliffH, i%3)
	}
	res := Check(ctx, noDeadline(), 3, ops, ops, nil)
	if res.Verdict != Aborted {
		t.Fatalf("want aborted on cancelled context, got %v", res.Verdict)
	}
	if res.GatesApplied > pollEvery {
		t.Fatalf("aborted only after %d gates; want at most one poll interval (%d)", res.GatesApplied, pollEvery)
	}
}

func TestCheckDeadline(t *testing.T) {
	ops := make([]circuit.CliffordGate, 4*pollEvery)
	for i := range ops {
		ops[i] = gate1(circuit.CliffS, i%3)
	}
	res := Check(context.Background(), time.Now().Add(-time.Second), 3, ops, ops, nil)
	if res.Verdict != Aborted {
		t.Fatalf("want aborted on expired deadline, got %v", res.Verdict)
	}
}
