package ec_test

// A Clifford pair's complete check is the stabilizer tableau, which
// core.Check runs after the stimuli agreed; ec is the DD routine alone.
// These tests pin the tableau's verdicts through the flow and the race's
// stab prover.  They are an external test package of this directory, where
// the stabilizer checks were tested when ec ran the tableau, so that their
// names stay where the suite has always listed them.

import (
	"context"
	"math"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/portfolio"
)

// pipeline runs the flow on a single random stimulus, so that these small
// registers are never simulated exhaustively and the complete check runs.
func pipeline(g1, g2 *circuit.Circuit, opts core.Options) core.Report {
	if opts.Stimuli == nil {
		opts.R = 1
	}
	return core.Check(g1, g2, opts)
}

// stabProver runs the race's stab prover alone on ctx.
func stabProver(t *testing.T, ctx context.Context, g1, g2 *circuit.Circuit, opts core.Options) portfolio.Outcome {
	t.Helper()
	p, err := core.NewProver("stab", opts)
	if err != nil {
		t.Fatal(err)
	}
	return p.Run(ctx, g1, g2)
}

func TestStabilizerEquivalentStrict(t *testing.T) {
	g1 := circuit.New(2, "g").H(0).CX(0, 1)
	g2 := circuit.New(2, "gp").H(0).H(1).CZ(0, 1).H(1)
	res := pipeline(g1, g2, core.Options{})
	if res.Verdict != core.Equivalent {
		t.Fatalf("want equivalent, got %v", res.Verdict)
	}
	if res.DecidedBy != "stab" || res.EC != nil {
		t.Fatalf("decided by %q (EC %+v), want the tableau", res.DecidedBy, res.EC)
	}
}

func TestStabilizerNotEquivalentMatchesDD(t *testing.T) {
	g1 := circuit.New(3, "g").H(0).CX(0, 1).CX(1, 2).S(2)
	g2 := circuit.New(3, "gp").H(0).CX(0, 2).CX(1, 2).S(2)
	sres := pipeline(g1, g2, core.Options{})
	dres := ec.Check(g1, g2, ec.Options{Strategy: ec.Proportional})
	if sres.Verdict != core.NotEquivalent || dres.Verdict != ec.NotEquivalent {
		t.Fatalf("verdicts: flow=%v dd=%v, want both not equivalent", sres.Verdict, dres.Verdict)
	}
	if sres.Counterexample == nil {
		t.Fatal("the flow found no counterexample")
	}

	// A difference the stimulus |00> cannot see (CX fixes it) is the
	// tableau's to find, with a counterexample that replays.
	cx := circuit.New(2, "cx").CX(0, 1)
	id := circuit.New(2, "id")
	rep := pipeline(cx, id, core.Options{Stimuli: []uint64{0}})
	if rep.Verdict != core.NotEquivalent || rep.DecidedBy != "stab" {
		t.Fatalf("CX vs I: %v by %q, want not equivalent by stab", rep.Verdict, rep.DecidedBy)
	}
	if rep.Counterexample == nil || rep.Counterexample.Input != 1 {
		t.Fatalf("CX vs I: counterexample %+v, want |01>", rep.Counterexample)
	}
	if dres := ec.Check(cx, id, ec.Options{}); dres.Verdict != ec.NotEquivalent {
		t.Fatalf("CX vs I: dd %v, want not equivalent", dres.Verdict)
	}
}

// TestStabilizerGlobalPhase is the strict-phase regression: rz(π/2) equals
// e^{-iπ/4}·S, so the pair is equivalent only up to a global phase.  The
// tableau alone cannot see the scalar; in strict mode the stimulus does.
func TestStabilizerGlobalPhase(t *testing.T) {
	g1 := circuit.New(1, "g").S(0)
	g2 := circuit.New(1, "gp").RZ(math.Pi/2, 0)
	strict := pipeline(g1, g2, core.Options{Stimuli: []uint64{0}})
	if strict.Verdict != core.NotEquivalent || strict.DecidedBy != "sim" {
		t.Fatalf("strict: want the stimulus to reject the phase, got %v by %q", strict.Verdict, strict.DecidedBy)
	}
	if strict.Counterexample == nil || strict.Counterexample.Input != 0 {
		t.Fatalf("strict: want counterexample |0>, got %+v", strict.Counterexample)
	}
	phase := pipeline(g1, g2, core.Options{UpToGlobalPhase: true})
	if phase.Verdict != core.EquivalentUpToGlobalPhase || phase.DecidedBy != "stab" {
		t.Fatalf("up-to-phase: want equivalent by stab, got %v by %q", phase.Verdict, phase.DecidedBy)
	}
	if out := stabProver(t, context.Background(), g1, g2, core.Options{}); out.Verdict != portfolio.NotEquivalent {
		t.Fatalf("strict stab prover: %v (%v), want not equivalent", out.Verdict, out.Stop)
	}
}

// TestStabilizerPhaseAnchorIdentityPhase covers a residual phase that is a
// pure scalar on the whole register (X·Y·Z = iI): the tableau fixes every
// generator, so only a stimulus can reject it in strict mode.
func TestStabilizerPhaseAnchorIdentityPhase(t *testing.T) {
	g1 := circuit.New(1, "g")
	g2 := circuit.New(1, "gp").Z(0).Y(0).X(0)
	strict := pipeline(g1, g2, core.Options{})
	if strict.Verdict != core.NotEquivalent {
		t.Fatalf("strict: want not equivalent (global phase i), got %v", strict.Verdict)
	}
	phase := pipeline(g1, g2, core.Options{UpToGlobalPhase: true})
	if phase.Verdict != core.EquivalentUpToGlobalPhase {
		t.Fatalf("up-to-phase: want equivalent, got %v", phase.Verdict)
	}
	if out := stabProver(t, context.Background(), g1, g2, core.Options{}); out.Verdict != portfolio.NotEquivalent {
		t.Fatalf("strict stab prover: %v (%v), want not equivalent", out.Verdict, out.Stop)
	}
}

// TestStabilizerDeclinesNonClifford: a non-Clifford pair's complete check
// is the DD, and the stab prover declines it.
func TestStabilizerDeclinesNonClifford(t *testing.T) {
	g1 := circuit.New(2, "g").H(0).T(1)
	g2 := circuit.New(2, "gp").H(0).T(1)
	res := pipeline(g1, g2, core.Options{})
	if res.Verdict != core.Equivalent || res.EC == nil {
		t.Fatalf("strict: %v, complete check %+v; want equivalent with the DD routine run", res.Verdict, res.EC)
	}
	res = pipeline(g1, g2, core.Options{UpToGlobalPhase: true})
	if res.EC == nil || res.DecidedBy != "ec:proportional" {
		t.Fatalf("up-to-phase: decided by %q (EC %+v), want ec:proportional", res.DecidedBy, res.EC)
	}
	if out := stabProver(t, context.Background(), g1, g2, core.Options{}); out.Stop != portfolio.StopError {
		t.Fatalf("stab prover: stop %v (%s), want the non-Clifford decline", out.Stop, out.Detail)
	}
}

// TestStabilizerAngleTolerance: a rotation a hair off π/2 must still route
// onto the tableau when the offset is below the derived angle tolerance,
// and must go to the DD when it is above, with the boundary derived from
// Options.Tolerance, not hardcoded.
func TestStabilizerAngleTolerance(t *testing.T) {
	angleTol := circuit.CliffordAngleTolerance(0) // default weight tolerance
	near := math.Pi/2 + angleTol/2
	far := math.Pi/2 + angleTol*50

	g1 := circuit.New(1, "g").S(0)
	gNear := circuit.New(1, "gp").RZ(near, 0)
	if res := pipeline(g1, gNear, core.Options{UpToGlobalPhase: true}); res.Verdict != core.EquivalentUpToGlobalPhase || res.DecidedBy != "stab" {
		t.Fatalf("offset %.2g below tolerance: want equivalent by stab, got %v by %q",
			angleTol/2, res.Verdict, res.DecidedBy)
	}
	gFar := circuit.New(1, "gp").RZ(far, 0)
	if res := pipeline(g1, gFar, core.Options{UpToGlobalPhase: true}); res.EC == nil || res.DecidedBy == "stab" {
		t.Fatalf("offset %.2g above tolerance: want the DD routine, got %v by %q",
			angleTol*50, res.Verdict, res.DecidedBy)
	}

	// A coarser weight tolerance must widen the snap consistently: the same
	// far offset becomes acceptable when Options.Tolerance scales it past the
	// offset.
	coarse := core.Options{UpToGlobalPhase: true, Tolerance: 1e-7} // angleTol = 1e-7
	if res := pipeline(g1, gFar, coarse); res.Verdict != core.EquivalentUpToGlobalPhase || res.DecidedBy != "stab" {
		t.Fatalf("coarse tolerance: want offset %.2g accepted, got %v by %q", angleTol*50, res.Verdict, res.DecidedBy)
	}
}

func TestStabilizerOutputPerm(t *testing.T) {
	g1 := circuit.New(2, "g").H(0).CX(0, 1)
	g2 := circuit.New(2, "gp").H(0).CX(0, 1).Swap(0, 1)
	if res := pipeline(g1, g2, core.Options{}); res.Verdict != core.NotEquivalent {
		t.Fatalf("without perm: want not equivalent, got %v", res.Verdict)
	}
	res := pipeline(g1, g2, core.Options{OutputPerm: []int{1, 0}})
	if res.Verdict != core.Equivalent || res.DecidedBy != "stab" {
		t.Fatalf("with perm [1 0]: want equivalent by stab (strict), got %v by %q", res.Verdict, res.DecidedBy)
	}
}

// TestStabilizerCancellation: the tableau stops on the flow's context and on
// ECTimeout, and its abort is inconclusive.
func TestStabilizerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := circuit.New(3, "g")
	for i := 0; i < 400; i++ {
		g.H(i%3).CX(i%3, (i+1)%3)
	}
	res := pipeline(g, g.Clone(), core.Options{Context: ctx})
	if res.Verdict != core.ProbablyEquivalent || !res.Cancelled {
		t.Fatalf("want a cancelled inconclusive verdict, got %v (cancelled %v)", res.Verdict, res.Cancelled)
	}
	out := stabProver(t, ctx, g, g.Clone(), core.Options{UpToGlobalPhase: true})
	if out.Stop != portfolio.StopCancelled {
		t.Fatalf("stab prover: stop %v, want cancelled", out.Stop)
	}
	res = pipeline(g, g.Clone(), core.Options{ECTimeout: time.Nanosecond})
	if res.Verdict != core.ProbablyEquivalent || res.Cancelled || res.DecidedBy != "" {
		t.Fatalf("ECTimeout: %v by %q (cancelled %v), want an inconclusive timeout", res.Verdict, res.DecidedBy, res.Cancelled)
	}
}

func TestStabilizerRegisterMismatch(t *testing.T) {
	g1 := circuit.New(2, "g")
	g2 := circuit.New(3, "gp")
	if res := pipeline(g1, g2, core.Options{}); res.Verdict != core.NotEquivalent {
		t.Fatalf("want size mismatch rejection, got %v", res.Verdict)
	}
	for _, upToPhase := range []bool{false, true} {
		if out := stabProver(t, context.Background(), g1, g2, core.Options{UpToGlobalPhase: upToPhase}); out.Verdict != portfolio.NotEquivalent {
			t.Fatalf("stab prover (up to phase %v): %v (%v), want not equivalent", upToPhase, out.Verdict, out.Stop)
		}
	}
}
