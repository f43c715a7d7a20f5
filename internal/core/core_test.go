package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/ec"
	"qcec/internal/portfolio"
)

func ghz(n int) *circuit.Circuit {
	c := circuit.New(n, "ghz")
	c.H(0)
	for i := 1; i < n; i++ {
		c.CX(i-1, i)
	}
	return c
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n, "random")
	for i := 0; i < gates; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.S(rng.Intn(n))
		case 3:
			c.RZ(rng.Float64()*2*math.Pi, rng.Intn(n))
		case 4:
			c.X(rng.Intn(n))
		case 5:
			a := rng.Intn(n)
			c.CX(a, (a+1+rng.Intn(n-1))%n)
		}
	}
	return c
}

// TestEquivalentPairFullFlow: an equivalent non-Clifford pair (a GHZ
// state and a T gate) reaches the DD complete routine after the stimuli.
func TestEquivalentPairFullFlow(t *testing.T) {
	g := ghz(5).T(3)
	g2 := g.Clone()
	g2.X(2).X(2) // identity pair appended
	rep := Check(g, g2, Options{Seed: 1})
	if rep.Verdict != Equivalent {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	if rep.EC == nil {
		t.Fatal("complete routine was not invoked")
	}
	if rep.NumSims == 0 {
		t.Fatal("no simulations recorded")
	}
}

// TestCliffordPairFullFlow is TestEquivalentPairFullFlow on a Clifford
// pair: after the stimuli the tableau decides, no DD complete routine runs,
// and the routine's node limit does not apply to it.  With no stimulus,
// nothing pins the scalar the tableau cannot see, and the DD decides.
func TestCliffordPairFullFlow(t *testing.T) {
	g := ghz(5)
	g2 := g.Clone()
	g2.X(2).X(2)
	rep := Check(g, g2, Options{Seed: 1, ECNodeLimit: 1})
	if rep.Verdict != Equivalent || rep.DecidedBy != "stab" {
		t.Fatalf("verdict = %v by %q, want equivalent by stab", rep.Verdict, rep.DecidedBy)
	}
	if rep.EC != nil {
		t.Fatalf("the DD complete routine ran: %+v", rep.EC)
	}
	if rep.NumSims == 0 {
		t.Fatal("no simulations recorded")
	}

	rep = Check(g, g2, Options{Stimuli: []uint64{}})
	if rep.Verdict != Equivalent || rep.DecidedBy != "ec:proportional" || rep.EC == nil || rep.NumSims != 0 {
		t.Fatalf("no stimuli: %v by %q after %d sims (EC %+v), want equivalent by ec:proportional", rep.Verdict, rep.DecidedBy, rep.NumSims, rep.EC)
	}
}

func TestErrorDetectedBySimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g1 := randomCircuit(rng, 6, 60)
	g2 := g1.Clone()
	g2.Gates[30] = circuit.Gate{Kind: circuit.H, Target: g2.Gates[30].Target, Target2: -1}
	rep := Check(g1, g2, Options{Seed: 3})
	if rep.Verdict != NotEquivalent {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	if rep.EC != nil {
		t.Error("complete routine ran although simulation already decided")
	}
	if rep.Counterexample == nil {
		t.Fatal("no counterexample recorded")
	}
	if rep.Counterexample.Fidelity > 1-1e-6 {
		t.Errorf("counterexample fidelity suspiciously high: %g", rep.Counterexample.Fidelity)
	}
	// The paper's headline: a single simulation usually suffices.
	if rep.NumSims != 1 {
		t.Logf("note: needed %d sims (usually 1)", rep.NumSims)
	}
}

func TestSingleQubitErrorDetectedInOneSim(t *testing.T) {
	// A single-qubit difference affects all columns (Example 7), so the
	// first stimulus must find it regardless of seed.
	g1 := ghz(6)
	g2 := ghz(6)
	g2.T(3) // extra T gate
	for seed := int64(0); seed < 20; seed++ {
		rep := Check(g1, g2, Options{Seed: seed})
		if rep.Verdict != NotEquivalent {
			t.Fatalf("seed %d: verdict = %v", seed, rep.Verdict)
		}
		if rep.NumSims != 1 {
			t.Fatalf("seed %d: needed %d sims for a single-qubit error", seed, rep.NumSims)
		}
	}
}

func TestTimeoutYieldsProbablyEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g1 := randomCircuit(rng, 12, 300)
	g2 := g1.Clone()
	rep := Check(g1, g2, Options{Seed: 7, R: 3, ECTimeout: time.Millisecond})
	if rep.Verdict != ProbablyEquivalent && rep.Verdict != Equivalent {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	if rep.Verdict == ProbablyEquivalent {
		if rep.EC == nil || rep.EC.Verdict != ec.TimedOut {
			t.Error("ProbablyEquivalent without a timed-out EC result")
		}
	}
}

func TestSkipEC(t *testing.T) {
	g := ghz(4)
	rep := Check(g, g.Clone(), Options{SkipEC: true, R: 5, Seed: 11})
	if rep.Verdict != ProbablyEquivalent {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	if rep.EC != nil {
		t.Error("EC ran despite SkipEC")
	}
}

func TestExhaustiveSimulationProvesEquivalence(t *testing.T) {
	// 3 qubits, R = 8 covers all basis states: simulation alone is a proof.
	g1 := ghz(3)
	g2 := g1.Clone()
	g2.Z(1).Z(1)
	rep := Check(g1, g2, Options{R: 8, Seed: 13, SkipEC: true})
	if !rep.Exhaustive {
		t.Fatal("flow did not notice exhaustive coverage")
	}
	if rep.Verdict != Equivalent {
		t.Fatalf("verdict = %v, want proven equivalent", rep.Verdict)
	}
}

func TestExplicitStimuli(t *testing.T) {
	// An error confined to the |11..1>-controlled block (Example 8 worst
	// case) is invisible to the |0...0> stimulus but visible to |1...1>.
	n := 4
	g1 := circuit.New(n, "id")
	g1.H(0).H(0) // trivially identity
	g2 := circuit.New(n, "ctrl-err")
	g2.MCZ([]int{0, 1, 2}, 3) // multi-controlled Z: differs only on |1111>
	zeroRep := Check(g1, g2, Options{Stimuli: []uint64{0}, SkipEC: true})
	if zeroRep.Verdict != ProbablyEquivalent {
		t.Fatalf("|0000> stimulus unexpectedly distinguished the circuits: %v", zeroRep.Verdict)
	}
	oneRep := Check(g1, g2, Options{Stimuli: []uint64{15}, SkipEC: true})
	if oneRep.Verdict != NotEquivalent {
		t.Fatalf("|1111> stimulus failed to distinguish the circuits: %v", oneRep.Verdict)
	}
}

func TestOutputPermutationFlow(t *testing.T) {
	g1 := ghz(3)
	g2 := ghz(3)
	g2.Swap(0, 2)
	perm := []int{2, 1, 0}
	rep := Check(g1, g2, Options{Seed: 17, OutputPerm: perm})
	if rep.Verdict != Equivalent {
		t.Fatalf("with perm: verdict = %v", rep.Verdict)
	}
	rep = Check(g1, g2, Options{Seed: 17})
	if rep.Verdict != NotEquivalent {
		t.Fatalf("without perm: verdict = %v", rep.Verdict)
	}
}

func TestGlobalPhaseFlow(t *testing.T) {
	g1 := circuit.New(2, "rz")
	g1.RZ(math.Pi, 0) // = diag(-i, i) = -i·Z: differs from Z by phase -i
	g2 := circuit.New(2, "z")
	g2.Z(0)
	strict := Check(g1, g2, Options{Seed: 19})
	if strict.Verdict != NotEquivalent {
		t.Fatalf("strict: verdict = %v", strict.Verdict)
	}
	loose := Check(g1, g2, Options{Seed: 19, UpToGlobalPhase: true})
	if loose.Verdict != Equivalent && loose.Verdict != EquivalentUpToGlobalPhase {
		t.Fatalf("phase-insensitive: verdict = %v", loose.Verdict)
	}
}

func TestRegisterMismatch(t *testing.T) {
	rep := Check(circuit.New(2, "a"), circuit.New(3, "b"), Options{})
	if rep.Verdict != NotEquivalent {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	// No simulation ran, so the fidelities read 1, as Report documents.
	if rep.NumSims != 0 || rep.MinFidelity != 1 || rep.AvgFidelity != 1 {
		t.Fatalf("sims %d, fidelity min %g avg %g; want 0 sims and fidelities 1",
			rep.NumSims, rep.MinFidelity, rep.AvgFidelity)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g1 := randomCircuit(rng, 5, 40)
	g2 := g1.Clone()
	g2.Gates[20] = circuit.Gate{Kind: circuit.Y, Target: g2.Gates[20].Target, Target2: -1}
	a := Check(g1, g2, Options{Seed: 99, SkipEC: true})
	b := Check(g1, g2, Options{Seed: 99, SkipEC: true})
	if a.Verdict != b.Verdict || a.NumSims != b.NumSims {
		t.Fatal("flow not deterministic for a fixed seed")
	}
	if a.Verdict == NotEquivalent && a.Counterexample.Input != b.Counterexample.Input {
		t.Fatal("counterexamples differ across identical runs")
	}
}

func TestReportTimes(t *testing.T) {
	g := ghz(4).T(1)
	rep := Check(g, g.Clone(), Options{Seed: 29})
	if rep.SimTime <= 0 || rep.TotalTime <= 0 {
		t.Error("missing timing information")
	}
	if rep.ECTime() <= 0 {
		t.Error("ECTime() = 0 although the complete routine ran")
	}
	norep := Report{}
	if norep.ECTime() != 0 {
		t.Error("ECTime() of empty report must be 0")
	}
}

// TestCliffordReportTimes: a Clifford pair's tableau check is no DD
// routine, so ECTime() stays 0 while the flow's own times are set.
func TestCliffordReportTimes(t *testing.T) {
	g := ghz(4)
	rep := Check(g, g.Clone(), Options{Seed: 29})
	if rep.DecidedBy != "stab" {
		t.Fatalf("decided by %q, want stab", rep.DecidedBy)
	}
	if rep.SimTime <= 0 || rep.TotalTime <= 0 {
		t.Error("missing timing information")
	}
	if rep.ECTime() != 0 {
		t.Errorf("ECTime() = %v although no DD complete routine ran", rep.ECTime())
	}
}

// Property: for circuits differing in one uncontrolled single-qubit gate,
// simulation finds the difference with the first stimulus (Sec. IV-A:
// difference affects 100% of columns).
func TestQuickSingleQubitErrorAlwaysCaught(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		g1 := randomCircuit(rng, n, 25)
		g2 := g1.Clone()
		// Insert an extra H at a random position.
		pos := rng.Intn(len(g2.Gates))
		extra := circuit.Gate{Kind: circuit.H, Target: rng.Intn(n), Target2: -1}
		g2.Gates = append(g2.Gates[:pos:pos], append([]circuit.Gate{extra}, g2.Gates[pos:]...)...)
		rep := Check(g1, g2, Options{Seed: seed, SkipEC: true})
		return rep.Verdict == NotEquivalent && rep.NumSims == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the flow never mislabels an equivalent pair as NotEquivalent.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		g1 := randomCircuit(rng, n, 20)
		g2 := g1.Clone()
		rep := Check(g1, g2, Options{Seed: seed, R: 4})
		return rep.Verdict == Equivalent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCounterexampleStateRendering(t *testing.T) {
	g1 := ghz(3)
	g2 := circuit.New(3, "broken")
	g2.H(0).CX(0, 1) // missing final CX
	rep := Check(g1, g2, Options{Seed: 5, SkipEC: true})
	if rep.Verdict != NotEquivalent {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	ce := rep.Counterexample
	if ce.StateG == "" || ce.StateGp == "" {
		t.Fatal("counterexample states not rendered")
	}
	if ce.StateG == ce.StateGp {
		t.Errorf("rendered states identical: %s", ce.StateG)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		g1 := randomCircuit(rng, 6, 50)
		var g2 *circuit.Circuit
		if trial%2 == 0 {
			g2 = g1.Clone()
		} else {
			g2 = g1.Clone()
			idx := rng.Intn(len(g2.Gates))
			g2.Gates[idx] = circuit.Gate{Kind: circuit.Y, Target: g2.Gates[idx].Target, Target2: -1}
		}
		seq := Check(g1, g2, Options{Seed: int64(trial), R: 12, SkipEC: true})
		par := Check(g1, g2, Options{Seed: int64(trial), R: 12, SkipEC: true, Parallel: 4})
		if seq.Verdict != par.Verdict {
			t.Fatalf("trial %d: verdicts differ: %v vs %v", trial, seq.Verdict, par.Verdict)
		}
		if seq.Verdict == NotEquivalent {
			if seq.Counterexample.Input != par.Counterexample.Input {
				t.Fatalf("trial %d: counterexamples differ: %d vs %d",
					trial, seq.Counterexample.Input, par.Counterexample.Input)
			}
			if seq.NumSims != par.NumSims {
				t.Fatalf("trial %d: NumSims differ: %d vs %d", trial, seq.NumSims, par.NumSims)
			}
		}
	}
}

func TestParallelWithOutputPerm(t *testing.T) {
	g1 := ghz(4)
	g2 := ghz(4)
	g2.Swap(0, 3)
	perm := []int{3, 1, 2, 0}
	rep := Check(g1, g2, Options{Seed: 3, R: 8, SkipEC: true, Parallel: 3, OutputPerm: perm})
	if rep.Verdict != ProbablyEquivalent {
		t.Fatalf("with perm: %v", rep.Verdict)
	}
	rep = Check(g1, g2, Options{Seed: 3, R: 8, SkipEC: true, Parallel: 3})
	if rep.Verdict != NotEquivalent {
		t.Fatalf("without perm: %v", rep.Verdict)
	}
}

func TestParallelMoreWorkersThanStimuli(t *testing.T) {
	g := ghz(3)
	rep := Check(g, g.Clone(), Options{Seed: 5, R: 2, SkipEC: true, Parallel: 16})
	if rep.Verdict != ProbablyEquivalent || rep.NumSims != 2 {
		t.Fatalf("verdict %v, sims %d", rep.Verdict, rep.NumSims)
	}
}

func TestRewritePrefilter(t *testing.T) {
	g := ghz(4)
	gp := g.Clone()
	gp.T(2).Tdg(2) // peephole-removable pair
	rep := Check(g, gp, Options{Provers: []string{"rewrite"}, Seed: 3})
	if rep.Verdict != Equivalent || rep.DecidedBy != "rewrite" {
		t.Fatalf("verdict %v by %q, want equivalent by rewrite", rep.Verdict, rep.DecidedBy)
	}
	if rep.Provers[0].Stop != portfolio.StopWon {
		t.Fatalf("rewrite stop = %v, want won", rep.Provers[0].Stop)
	}
	if rep.NumSims != 0 || rep.EC != nil {
		t.Errorf("rewrite alone ran the pipeline: sims=%d ec=%v", rep.NumSims, rep.EC)
	}
	// An inconclusive rewrite loses to the simulations, which still catch
	// the non-equivalent pair.
	bad := g.Clone()
	bad.Gates[1] = circuit.Gate{Kind: circuit.Z, Target: 1, Target2: -1}
	rep = Check(g, bad, Options{Provers: []string{"rewrite", "sim"}, Seed: 3})
	if rep.Verdict != NotEquivalent || rep.DecidedBy != "sim" {
		t.Fatalf("verdict %v by %q, want not equivalent by sim", rep.Verdict, rep.DecidedBy)
	}
	if rep.Provers[0].Stop != portfolio.StopInconclusive {
		t.Errorf("rewrite on a buggy pair: stop = %v, want inconclusive", rep.Provers[0].Stop)
	}
	// With an output permutation rewrite declines.
	g2 := ghz(4)
	g2.Swap(0, 3)
	rep = Check(g, g2, Options{Provers: []string{"rewrite"}, Seed: 3, OutputPerm: []int{3, 1, 2, 0}})
	if rep.Verdict != ProbablyEquivalent || rep.Provers[0].Stop != portfolio.StopError {
		t.Errorf("rewrite with OutputPerm: verdict %v, stop %v; want it to decline", rep.Verdict, rep.Provers[0].Stop)
	}
}

func TestZXPrefilter(t *testing.T) {
	// A Clifford recompilation the ZX prover can prove: HXH = Z plus
	// commuted CZs.
	g1 := circuit.New(3, "a")
	g1.Z(0).CZ(0, 1).CZ(1, 2)
	g2 := circuit.New(3, "b")
	g2.H(0).X(0).H(0).CZ(1, 2).CZ(0, 1)
	rep := Check(g1, g2, Options{Provers: []string{"zx"}, Seed: 9, UpToGlobalPhase: true})
	if rep.Verdict != EquivalentUpToGlobalPhase || rep.DecidedBy != "zx" {
		t.Fatalf("verdict %v by %q, want equivalent up to global phase by zx", rep.Verdict, rep.DecidedBy)
	}
	if rep.NumSims != 0 || rep.EC != nil {
		t.Errorf("zx alone ran the pipeline: %+v", rep)
	}
	// An inconclusive zx loses to the simulations, which still catch the
	// non-equivalent pair.
	bad := g1.Clone()
	bad.T(2)
	rep = Check(g1, bad, Options{Provers: []string{"zx", "sim"}, Seed: 9})
	if rep.Verdict != NotEquivalent || rep.DecidedBy != "sim" {
		t.Fatalf("verdict %v by %q, want not equivalent by sim", rep.Verdict, rep.DecidedBy)
	}
	if rep.Provers[0].Verdict != portfolio.Inconclusive {
		t.Errorf("zx on a buggy pair: verdict %v, want inconclusive", rep.Provers[0].Verdict)
	}
}

func TestFidelityThresholdApproximate(t *testing.T) {
	// G' differs from G by a tiny rotation: exactly non-equivalent, but
	// approximately equivalent at a 0.99 threshold.
	g1 := ghz(4)
	g2 := ghz(4)
	g2.RZ(0.01, 2) // fidelity ~ cos^2(0.005) ≈ 0.999975
	exact := Check(g1, g2, Options{Seed: 3, SkipEC: true})
	if exact.Verdict != NotEquivalent {
		t.Fatalf("exact: verdict %v", exact.Verdict)
	}
	approx := Check(g1, g2, Options{Seed: 3, FidelityThreshold: 0.99})
	if approx.Verdict != ProbablyEquivalent {
		t.Fatalf("approx: verdict %v", approx.Verdict)
	}
	if approx.EC != nil {
		t.Error("approximate mode ran the complete routine")
	}
	if approx.MinFidelity >= 1 || approx.MinFidelity < 0.999 {
		t.Errorf("MinFidelity = %g", approx.MinFidelity)
	}
	if approx.AvgFidelity < approx.MinFidelity {
		t.Errorf("AvgFidelity %g < MinFidelity %g", approx.AvgFidelity, approx.MinFidelity)
	}

	// A large rotation fails even the approximate threshold.
	g3 := ghz(4)
	g3.RZ(2.0, 2)
	bad := Check(g1, g3, Options{Seed: 3, FidelityThreshold: 0.99})
	if bad.Verdict != NotEquivalent {
		t.Fatalf("large error: verdict %v", bad.Verdict)
	}
	if bad.Counterexample.Fidelity >= 0.99 {
		t.Errorf("counterexample fidelity %g above threshold", bad.Counterexample.Fidelity)
	}
}

func TestFidelityStatsExactMode(t *testing.T) {
	g := ghz(3)
	rep := Check(g, g.Clone(), Options{Seed: 5, SkipEC: true})
	if rep.MinFidelity < 1-1e-9 || rep.AvgFidelity < 1-1e-9 {
		t.Errorf("fidelity stats on identical pair: min %g avg %g", rep.MinFidelity, rep.AvgFidelity)
	}
}
