// Cross-validation of the tableau fast path against the DD-based complete
// checker on randomized Clifford instances: stab.Check up to phase, and in
// the strict convention the flow (core.Check), whose complete check of a
// Clifford pair is the tableau.  This lives in an external test package so
// it can import internal/ec and internal/core (which import internal/stab)
// without a cycle.
package stab_test

import (
	"context"
	"testing"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/errinject"
	"qcec/internal/sim"
	"qcec/internal/stab"
)

// cliffordSafeKinds are the error classes that keep a Clifford circuit
// Clifford: CNOT surgery only.  GateSubstitution can plant a T and
// RotationOffset detunes angles off the π/2 grid, so both would change the
// routing decision, not just the verdict.
var cliffordSafeKinds = []errinject.Kind{
	errinject.MisplacedCNOT,
	errinject.RemovedCNOT,
	errinject.FlippedCNOT,
}

// tableauCheck decides a Clifford pair on the tableau, in ec's verdict
// terms: up to phase stab.Check alone, strict the flow.
func tableauCheck(t *testing.T, g1, g2 *circuit.Circuit, upToPhase bool, perm []int) ec.Result {
	t.Helper()
	if !upToPhase {
		rep := core.Check(g1, g2, core.Options{OutputPerm: perm})
		res := ec.Result{Verdict: map[core.Verdict]ec.Verdict{
			core.Equivalent:                ec.Equivalent,
			core.EquivalentUpToGlobalPhase: ec.EquivalentUpToGlobalPhase,
			core.NotEquivalent:             ec.NotEquivalent,
			core.ProbablyEquivalent:        ec.TimedOut,
		}[rep.Verdict]}
		if rep.Counterexample != nil {
			res.Counterexample = &rep.Counterexample.Input
		}
		return res
	}
	tol := circuit.CliffordAngleTolerance(0)
	ops1, _, ok1 := circuit.LowerClifford(g1, tol)
	ops2, _, ok2 := circuit.LowerClifford(g2, tol)
	if !ok1 || !ok2 {
		t.Fatalf("not a Clifford pair")
	}
	sres := stab.Check(context.Background(), time.Time{}, g1.N, ops1, ops2, perm)
	switch sres.Verdict {
	case stab.EquivalentUpToPhase:
		return ec.Result{Verdict: ec.EquivalentUpToGlobalPhase}
	case stab.NotEquivalent:
		return ec.Result{Verdict: ec.NotEquivalent, Counterexample: sres.Counterexample}
	}
	return ec.Result{Verdict: ec.TimedOut}
}

func checkBoth(t *testing.T, g1, g2 *circuit.Circuit, upToPhase bool) (ec.Result, ec.Result) {
	t.Helper()
	sres := tableauCheck(t, g1, g2, upToPhase, nil)
	dres := ec.Check(g1, g2, ec.Options{Strategy: ec.Proportional, UpToGlobalPhase: upToPhase})
	if sres.Verdict == ec.TimedOut || dres.Verdict == ec.TimedOut {
		t.Fatalf("unexpected inconclusive verdict: stab=%v dd=%v", sres.Verdict, dres.Verdict)
	}
	return sres, dres
}

// TestCrossValidateEquivalentPairs checks that tableau and DD verdicts
// bit-match on equivalent Clifford pairs (a circuit against a padded clone),
// in both phase conventions.
func TestCrossValidateEquivalentPairs(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		for seed := int64(0); seed < 4; seed++ {
			g1 := bench.RandomClifford(n, 12*n, seed)
			g2 := g1.Clone()
			g2.H(0).H(0).S(1 % n).Sdg(1 % n) // identity padding
			for _, phase := range []bool{false, true} {
				sres, dres := checkBoth(t, g1, g2, phase)
				if sres.Equivalent() != dres.Equivalent() {
					t.Errorf("n=%d seed=%d phase=%v: stab=%v dd=%v", n, seed, phase, sres.Verdict, dres.Verdict)
				}
				if !sres.Equivalent() {
					t.Errorf("n=%d seed=%d phase=%v: padded clone judged %v", n, seed, phase, sres.Verdict)
				}
			}
		}
	}
}

// TestCrossValidateInjectedErrors mutates Clifford circuits with the
// Clifford-preserving error classes and checks the tableau verdict matches
// the DD verdict on every pair; when the tableau supplies a counterexample,
// the distinguishing input is re-simulated and must actually distinguish.
func TestCrossValidateInjectedErrors(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		for seed := int64(0); seed < 3; seed++ {
			g1 := bench.RandomClifford(n, 10*n, seed)
			for _, kind := range cliffordSafeKinds {
				g2, inj, err := errinject.Inject(g1, kind, seed+17)
				if err != nil {
					continue // no applicable gate in this instance
				}
				sres, dres := checkBoth(t, g1, g2, true)
				if sres.Equivalent() != dres.Equivalent() {
					t.Errorf("n=%d seed=%d %s: stab=%v dd=%v", n, seed, inj, sres.Verdict, dres.Verdict)
				}
				if sres.Verdict == ec.NotEquivalent && sres.Counterexample != nil {
					assertDistinguishes(t, g1, g2, *sres.Counterexample)
				}
			}
		}
	}
}

// assertDistinguishes re-simulates both circuits on the claimed input and
// fails unless the output states measurably differ.
func assertDistinguishes(t *testing.T, g1, g2 *circuit.Circuit, input uint64) {
	t.Helper()
	p := dd.NewDefault(g1.N)
	s := sim.NewOn(p)
	u := s.Run(g1, input)
	v := s.RunFromWithPins(g2, p.BasisState(input), []dd.VEdge{u})
	if f := p.Fidelity(u, v); f > 1-1e-6 {
		t.Errorf("claimed counterexample |%b> does not distinguish (fidelity %g)", input, f)
	}
}

// TestCrossValidatePortfolio runs the prover race on a Clifford pair and
// checks the race's verdict agrees with the standalone tableau verdict;
// with only the stab prover selected, it must decide the race.
func TestCrossValidatePortfolio(t *testing.T) {
	g1 := bench.RandomClifford(6, 80, 42)
	g2, _, err := errinject.Inject(g1, errinject.FlippedCNOT, 7)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	want := tableauCheck(t, g1, g2, true, nil)

	rep := core.Check(g1, g2, core.Options{Provers: []string{"stab"}, UpToGlobalPhase: true})
	if rep.DecidedBy != "stab" {
		t.Fatalf("winner = %q, want stab (reports: %+v, err %v)", rep.DecidedBy, rep.Provers, rep.Err)
	}
	gotEq := rep.Verdict == core.Equivalent || rep.Verdict == core.EquivalentUpToGlobalPhase
	if gotEq != want.Equivalent() {
		t.Fatalf("race verdict %v disagrees with stabilizer %v", rep.Verdict, want.Verdict)
	}
}

// TestCrossValidateOutputPerm checks the permutation orientation end to end:
// relabeling by SWAP must be judged identically by tableau and DD.
func TestCrossValidateOutputPerm(t *testing.T) {
	g1 := bench.RandomClifford(4, 40, 3)
	g2 := g1.Clone()
	g2.Swap(1, 3)
	perm := []int{0, 3, 2, 1}
	for _, phase := range []bool{false, true} {
		sres := tableauCheck(t, g1, g2, phase, perm)
		dres := ec.Check(g1, g2, ec.Options{Strategy: ec.Proportional, OutputPerm: perm, UpToGlobalPhase: phase})
		// Up-to-phase mode compares at Equivalent() granularity: the DD path
		// still reports strict Equivalent when the phases happen to match
		// exactly, which the tableau by design cannot see.
		if sres.Equivalent() != dres.Equivalent() {
			t.Errorf("phase=%v: stab=%v dd=%v", phase, sres.Verdict, dres.Verdict)
		}
		if !phase && sres.Verdict != dres.Verdict {
			t.Errorf("strict: stab=%v dd=%v", sres.Verdict, dres.Verdict)
		}
		if !sres.Equivalent() {
			t.Errorf("phase=%v: relabeled clone judged %v", phase, sres.Verdict)
		}
	}
}
