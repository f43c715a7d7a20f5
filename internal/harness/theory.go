package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/sim"
)

// TheoryRow is one line of the Sec. IV-A experiment: a difference gate with
// c controls affects 2^{n-c} of the 2^n columns, so a random basis state is
// a counterexample with probability 2^{-c}.
type TheoryRow struct {
	Controls  int
	Predicted float64 // 2^{-c}
	Measured  float64 // exhaustive fraction of distinguishing basis states
}

// baseCircuit returns a fixed pseudo-random Clifford+T circuit used as the
// common prefix G of the theory experiment.
func baseCircuit(n int, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n, "theory-base")
	for i := 0; i < gates; i++ {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.S(rng.Intn(n))
		case 3:
			a := rng.Intn(n)
			c.CX(a, (a+1+rng.Intn(n-1))%n)
		}
	}
	return c
}

// TheoryExperiment measures, for each control count c, the exact fraction of
// computational basis states that distinguish G from G' = D·G where the
// difference D is a c-controlled X (applied before G, so that D is exactly
// the paper's difference operator U†U').  The qubit count is user input
// (qectab -theory-n), so a bad range is an error, not a panic.
func TheoryExperiment(n int, seed int64) ([]TheoryRow, error) {
	if n < 2 || n > 14 {
		return nil, fmt.Errorf("harness: theory experiment needs 2..14 qubits, got %d", n)
	}
	g := baseCircuit(n, 4*n, seed)
	rows := make([]TheoryRow, 0, n)
	for c := 0; c < n; c++ {
		gp := circuit.New(n, fmt.Sprintf("theory-c%d", c))
		controls := make([]int, c)
		for i := range controls {
			controls[i] = i
		}
		// Difference first, then the common circuit.
		if c == 0 {
			gp.X(n - 1)
		} else {
			gp.MCX(controls, n-1)
		}
		gp.Append(g)

		pair := sim.NewPair(dd.NewDefault(n), sim.Prepare(g), sim.Prepare(gp), nil)
		mismatches := 0
		total := 1 << uint(n)
		for i := 0; i < total; i++ {
			if !cn.StatesAgree(pair.Compare(uint64(i)).Overlap, true, cn.AgreementTolerance(0)) {
				mismatches++
			}
			pair.MaybeGC()
		}
		rows = append(rows, TheoryRow{
			Controls:  c,
			Predicted: math.Exp2(-float64(c)),
			Measured:  float64(mismatches) / float64(total),
		})
	}
	return rows, nil
}

// PrintTheory renders the Sec. IV-A table.
func PrintTheory(w io.Writer, n int, rows []TheoryRow) {
	fmt.Fprintf(w, "Sec. IV-A theory — detection probability of a c-controlled difference gate (n = %d)\n", n)
	fmt.Fprintf(w, "%8s %12s %12s\n", "controls", "predicted", "measured")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.6f %12.6f\n", r.Controls, r.Predicted, r.Measured)
	}
}

// StimuliAblation compares deterministic-|0...0> stimuli against random
// stimuli on the worst-case error of Example 8: a fully-controlled
// difference that only affects two columns.  It demonstrates why the flow
// chooses *random* basis states.
type StimuliAblation struct {
	N               int
	R               int
	ZeroDetected    bool // |0...0> stimulus found the error
	RandomDetected  bool // r random stimuli found the error
	AllOnesDetected bool // the |1...1> stimulus (the affected column)
}

// RunStimuliAblation builds the Example-8 instance and probes it with the
// three stimulus policies.
func RunStimuliAblation(n, r int, seed int64) StimuliAblation {
	g := baseCircuit(n, 3*n, seed)
	gp := circuit.New(n, "worstcase")
	controls := make([]int, n-1)
	for i := range controls {
		controls[i] = i
	}
	gp.MCX(controls, n-1)
	gp.Append(g)

	res := StimuliAblation{N: n, R: r}
	zero := core.Check(g, gp, core.Options{Stimuli: []uint64{0}, SkipEC: true})
	res.ZeroDetected = zero.Verdict == core.NotEquivalent
	rnd := core.Check(g, gp, core.Options{R: r, Seed: seed, SkipEC: true})
	res.RandomDetected = rnd.Verdict == core.NotEquivalent
	ones := core.Check(g, gp, core.Options{Stimuli: []uint64{uint64(1)<<uint(n-1) - 1}, SkipEC: true})
	res.AllOnesDetected = ones.Verdict == core.NotEquivalent
	return res
}

// PrintStimuliAblation renders the stimulus-policy comparison.
func PrintStimuliAblation(w io.Writer, a StimuliAblation) {
	fmt.Fprintf(w, "Stimuli ablation (Example-8 worst case, n = %d, difference confined to 2 of %d columns):\n", a.N, 1<<uint(a.N))
	fmt.Fprintf(w, "  |0...0> stimulus detected: %v\n", a.ZeroDetected)
	fmt.Fprintf(w, "  %d random stimuli detected: %v\n", a.R, a.RandomDetected)
	fmt.Fprintf(w, "  control-pattern stimulus detected: %v\n", a.AllOnesDetected)
}
