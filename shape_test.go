// Shape tests: the paper's headline claims, asserted end-to-end at small
// scale.  These are the checks a reviewer would run first; the benchmark
// families in bench_test.go measure the same artifacts quantitatively.
package qcec_test

import (
	"testing"
	"time"

	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/harness"
)

// Claim 1 (Table Ia): on non-equivalent pairs, simulation finds a
// counterexample on every instance, usually within a single run, while the
// complete construction baseline is orders of magnitude slower or times out.
func TestClaimSimulationDetectsAllErrors(t *testing.T) {
	_, neq := suitesT(t)
	oneSim := 0
	var simTotal, ecTotal time.Duration
	for _, inst := range neq {
		row := harness.RunInstance(inst, core.Options{
			R: 64, ECTimeout: 2 * time.Second, Strategy: ec.Construction, Seed: 7,
		})
		if !row.SimDetected {
			t.Errorf("%s: simulation missed the injected error (%s)", row.Name, row.Injection)
			continue
		}
		if row.ECTimedOut {
			// The paper's headline case: the complete routine gave up, the
			// simulation stage still produced a counterexample (checked by
			// SimDetected above) — and did so inside the same budget.
			if row.TSim > row.TEC {
				t.Errorf("%s: EC timed out yet simulation took longer (%v vs %v)",
					row.Name, row.TSim, row.TEC)
			}
		}
		if row.NumSims == 1 {
			oneSim++
		}
		simTotal += row.TSim
		ecTotal += row.TEC
	}
	if oneSim*3 < len(neq)*2 {
		t.Errorf("only %d/%d errors found within one simulation; the paper finds most in one",
			oneSim, len(neq))
	}
	// Aggregate: detecting every error by simulation must not cost more
	// than the complete baseline (in the paper it is orders of magnitude
	// cheaper; under parallel-test load we only assert the direction).
	if simTotal > ecTotal {
		t.Errorf("t_sim total %v exceeds t_ec total %v", simTotal, ecTotal)
	}
}

// Claim 2 (Table Ib): on equivalent pairs the simulation stage never
// produces a false counterexample.
func TestClaimNoFalseCounterexamples(t *testing.T) {
	eq, _ := suitesT(t)
	for _, inst := range eq {
		rep := core.Check(inst.G, inst.Gp, core.Options{
			R: 10, Seed: 11, SkipEC: true, OutputPerm: inst.OutputPerm,
		})
		if rep.Verdict == core.NotEquivalent {
			t.Errorf("%s: false counterexample on an equivalent pair", inst.Name)
		}
	}
}

// Claim 3 (Fig. 3): the full flow never returns a wrong verdict, and the
// timeout outcome carries the probably-equivalent estimate.
func TestClaimFlowVerdictsSound(t *testing.T) {
	eq, neq := suitesT(t)
	all := append(append([]harness.Instance{}, eq...), neq...)
	s := harness.RunFlow(all, core.Options{
		R: 16, ECTimeout: 2 * time.Second, Strategy: ec.Proportional, Seed: 13,
	})
	if s.WrongVerdicts != 0 {
		t.Fatalf("flow produced %d wrong verdicts over %d instances", s.WrongVerdicts, s.Total)
	}
	if s.NotEquivalent != len(neq) {
		t.Errorf("flow found %d non-equivalent instances, want %d", s.NotEquivalent, len(neq))
	}
}

// Claim 4 (Sec. IV-A): detection probability of a c-controlled difference
// is exactly 2^-c.
func TestClaimTheoryExact(t *testing.T) {
	rows, err := harness.TheoryExperiment(7, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Measured != row.Predicted {
			t.Errorf("c=%d: measured %g, predicted %g", row.Controls, row.Measured, row.Predicted)
		}
	}
}

// suitesT builds the small-scale suites for tests (sharing the benchmark
// builder used by bench_test.go).
func suitesT(t *testing.T) ([]harness.Instance, []harness.Instance) {
	t.Helper()
	eq, err := harness.BuildEquivalentSuite(harness.Small)
	if err != nil {
		t.Fatal(err)
	}
	neq, err := harness.BuildNonEquivalentSuite(harness.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eq, neq
}
