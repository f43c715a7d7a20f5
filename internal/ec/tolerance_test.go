package ec

import (
	"context"
	"math/cmplx"
	"testing"

	"qcec/internal/circuit"
)

// A tightened Options.Tolerance must tighten the counterexample fidelity
// threshold with it.  RY(θ) vs RY(θ+ε) gives every column an infidelity of
// about ε²/4 ≈ 3e-7: inside the historical hardcoded 1-1e-6 band (where the
// witness search reported nothing) but far outside the band derived from a
// tight tolerance (1e-12 → 1e-8).
func TestCounterexampleThresholdFromTolerance(t *testing.T) {
	const eps = 1.1e-3
	g1 := circuit.New(1, "ry")
	g1.RY(0.3, 0)
	g2 := circuit.New(1, "ry-drift")
	g2.RY(0.3+eps, 0)

	r := Check(g1, g2, Options{Strategy: Proportional, Tolerance: 1e-12})
	if r.Verdict != NotEquivalent {
		t.Fatalf("tight check: verdict = %v, want NotEquivalent", r.Verdict)
	}
	if r.Counterexample == nil {
		t.Fatal("tight check found no counterexample: fidelity threshold not derived from Options.Tolerance")
	}

	// At the default tolerance the derived band reproduces the historical
	// 1e-6: the drift is below it, so no witness is manufactured.
	def := Check(g1, g2, Options{Strategy: Proportional})
	if def.Counterexample != nil {
		t.Errorf("default check manufactured a counterexample %d for a sub-band drift", *def.Counterexample)
	}
}

// The up-to-phase magnitude band must widen with a coarse Options.Tolerance
// the same way circuit.CliffordAngleTolerance does.  The custom gate is
// (1+5e-4)·e^{i0.4}·X: its magnitude drift sits inside the band derived from
// a coarse tolerance (1e-5 → capped at 1e-3) but outside the historical
// hardcoded 1e-6 band.
func TestPhaseBandFromTolerance(t *testing.T) {
	ph := complex(1+5e-4, 0) * cmplx.Exp(complex(0, 0.4))
	g1 := circuit.New(1, "x")
	g1.X(0)
	g2 := circuit.New(1, "phx")
	g2.Add(circuit.Gate{
		Kind: circuit.Custom, Target: 0, Target2: -1,
		Custom: &circuit.Unitary{Mat: [2][2]complex128{{0, ph}, {ph, 0}}},
	})

	coarse := Check(g1, g2, Options{Strategy: Proportional, UpToGlobalPhase: true, Tolerance: 1e-5})
	if coarse.Verdict != EquivalentUpToGlobalPhase {
		t.Fatalf("coarse check: verdict = %v, want EquivalentUpToGlobalPhase", coarse.Verdict)
	}

	// At the default tolerance the same pair is outside the band.
	strict := Check(g1, g2, Options{Strategy: Proportional, UpToGlobalPhase: true})
	if strict.Verdict != NotEquivalent {
		t.Fatalf("default check: verdict = %v, want NotEquivalent", strict.Verdict)
	}
}

// Lookahead's speculative multiplications are real DD work and must be
// visible in the result: two probes per probe-decided step, none once a side
// is exhausted, and zero for the schemes that never probe.
func TestLookaheadProbeAccounting(t *testing.T) {
	g1, g2 := ghz(4), ghz(4)
	r := Check(g1, g2, Options{Strategy: Lookahead})
	if r.Verdict != Equivalent {
		t.Fatalf("verdict = %v", r.Verdict)
	}
	if r.ProbeMuls == 0 || r.ProbeMuls%2 != 0 {
		t.Errorf("ProbeMuls = %d, want a positive even count (two per decided step)", r.ProbeMuls)
	}
	// At most every non-final step is probe-decided.
	if max := 2 * (len(g1.Gates) + len(g2.Gates) - 1); r.ProbeMuls > max {
		t.Errorf("ProbeMuls = %d exceeds the %d possible probes", r.ProbeMuls, max)
	}
	if rp := Check(g1, g2, Options{Strategy: Proportional}); rp.ProbeMuls != 0 {
		t.Errorf("proportional reported ProbeMuls = %d, want 0", rp.ProbeMuls)
	}
}

// The budget polls must run between Lookahead's two probes, not only at the
// end of a full step: with a context cancelled before the check starts, the
// run has to stop after the first speculative multiplication, before any
// gate is committed.
func TestLookaheadPollsBetweenProbes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Check(ghz(4), ghz(4), Options{Strategy: Lookahead, Context: ctx})
	if r.Verdict != TimedOut || r.Cause != CauseCancelled {
		t.Fatalf("verdict = %v, cause = %v; want TimedOut/CauseCancelled", r.Verdict, r.Cause)
	}
	if r.ProbeMuls != 1 || r.GatesApplied != 0 {
		t.Errorf("stopped at ProbeMuls=%d GatesApplied=%d; want the cancellation honored between the probes (1, 0)",
			r.ProbeMuls, r.GatesApplied)
	}
}
