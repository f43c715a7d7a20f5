package ec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"qcec/internal/circuit"
)

func allStrategies() []Strategy {
	return []Strategy{Construction, Sequential, Proportional, Lookahead, StrategyGateCost}
}

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

func TestIdenticalCircuitsEquivalent(t *testing.T) {
	g := ghz(4)
	for _, s := range allStrategies() {
		r := Check(g, g.Clone(), Options{Strategy: s})
		if r.Verdict != Equivalent {
			t.Errorf("%v: verdict = %v", s, r.Verdict)
		}
		if !r.Equivalent() {
			t.Errorf("%v: Equivalent() = false", s)
		}
	}
}

func TestRewrittenEquivalent(t *testing.T) {
	// HXH = Z: G uses Z, G' uses HXH.
	g1 := circuit.New(2, "z")
	g1.Z(0).CX(0, 1)
	g2 := circuit.New(2, "hxh")
	g2.H(0).X(0).H(0).CX(0, 1)
	for _, s := range allStrategies() {
		r := Check(g1, g2, Options{Strategy: s})
		if r.Verdict != Equivalent {
			t.Errorf("%v: verdict = %v (reason %q)", s, r.Verdict, r.Reason)
		}
	}
}

func TestSingleGateErrorDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g1 := randomCircuit(rng, 4, 30)
	g2 := g1.Clone()
	// Flip one gate: replace gate 12 with an extra X on its target.
	g2.Gates[12] = circuit.Gate{Kind: circuit.X, Target: g2.Gates[12].Target, Target2: -1}
	// Ensure they actually differ (gate 12 was not already X).
	for _, s := range allStrategies() {
		r := Check(g1, g2, Options{Strategy: s})
		if r.Verdict != NotEquivalent {
			t.Errorf("%v: verdict = %v, want not equivalent", s, r.Verdict)
		}
		if r.Counterexample == nil {
			t.Errorf("%v: no counterexample produced", s)
		}
	}
}

func TestMisplacedCNOTDetected(t *testing.T) {
	g1 := ghz(4)
	g2 := circuit.New(4, "bad")
	g2.H(0).CX(0, 1).CX(1, 2).CX(1, 3) // last CX control moved from 2 to 1
	r := Check(g1, g2, Options{Strategy: Proportional})
	if r.Verdict != NotEquivalent {
		t.Fatalf("verdict = %v", r.Verdict)
	}
}

func TestGlobalPhaseHandling(t *testing.T) {
	g1 := circuit.New(1, "x")
	g1.X(0)
	// e^{i*0.4} X as a custom gate.
	ph := cmplx.Exp(complex(0, 0.4))
	g2 := circuit.New(1, "phx")
	g2.Add(circuit.Gate{
		Kind: circuit.Custom, Target: 0, Target2: -1,
		Custom: &circuit.Unitary{Mat: [2][2]complex128{{0, ph}, {ph, 0}}},
	})
	strict := Check(g1, g2, Options{Strategy: Proportional})
	if strict.Verdict != NotEquivalent {
		t.Errorf("strict check accepted phase difference: %v", strict.Verdict)
	}
	loose := Check(g1, g2, Options{Strategy: Proportional, UpToGlobalPhase: true})
	if loose.Verdict != EquivalentUpToGlobalPhase {
		t.Errorf("phase-insensitive check: verdict = %v", loose.Verdict)
	}
	if !loose.Equivalent() {
		t.Error("EquivalentUpToGlobalPhase not counted as equivalent")
	}
}

func TestOutputPermutation(t *testing.T) {
	// G = identity-ish circuit; G' = same followed by a SWAP that the
	// "router" chose not to undo, declaring an output permutation instead.
	g1 := circuit.New(3, "orig")
	g1.H(0).CX(0, 1).T(2)
	g2 := g1.Clone()
	g2.Swap(1, 2) // logical 1 now on wire 2 and vice versa
	perm := []int{0, 2, 1}
	for _, s := range allStrategies() {
		r := Check(g1, g2, Options{Strategy: s, OutputPerm: perm})
		if r.Verdict != Equivalent {
			t.Errorf("%v: with perm: verdict = %v (%s)", s, r.Verdict, r.Reason)
		}
		r = Check(g1, g2, Options{Strategy: s})
		if r.Verdict != NotEquivalent {
			t.Errorf("%v: without perm: verdict = %v", s, r.Verdict)
		}
	}
}

func TestTimeoutVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g1 := randomCircuit(rng, 10, 400)
	g2 := randomCircuit(rng, 10, 400)
	r := Check(g1, g2, Options{Strategy: Sequential, Timeout: time.Microsecond})
	if r.Verdict != TimedOut {
		t.Fatalf("verdict = %v, want timeout", r.Verdict)
	}
	if r.Reason == "" {
		t.Error("timeout without reason")
	}
}

func TestNodeLimitVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Random entangling circuit grows the matrix DD fast.
	g1 := randomCircuit(rng, 8, 200)
	g2 := randomCircuit(rng, 8, 200)
	r := Check(g1, g2, Options{Strategy: Sequential, NodeLimit: 100})
	if r.Verdict != TimedOut {
		t.Fatalf("verdict = %v, want timeout (node limit)", r.Verdict)
	}
}

func TestRegisterMismatch(t *testing.T) {
	r := Check(circuit.New(2, "a"), circuit.New(3, "b"), Options{})
	if r.Verdict != NotEquivalent {
		t.Fatalf("verdict = %v", r.Verdict)
	}
}

func TestEmptyCircuitsEquivalent(t *testing.T) {
	for _, s := range allStrategies() {
		r := Check(circuit.New(2, "a"), circuit.New(2, "b"), Options{Strategy: s})
		if r.Verdict != Equivalent {
			t.Errorf("%v: empty circuits: %v", s, r.Verdict)
		}
	}
}

func TestInverseComposition(t *testing.T) {
	// G' = G followed by H H (identity pair): still equivalent.
	rng := rand.New(rand.NewSource(10))
	g1 := randomCircuit(rng, 5, 40)
	g2 := g1.Clone()
	g2.H(3).H(3)
	for _, s := range allStrategies() {
		r := Check(g1, g2, Options{Strategy: s})
		if r.Verdict != Equivalent {
			t.Errorf("%v: verdict = %v", s, r.Verdict)
		}
	}
}

func TestCounterexampleIsValid(t *testing.T) {
	g1 := ghz(3)
	g2 := circuit.New(3, "bad")
	g2.H(0).CX(0, 1) // missing last CX
	r := Check(g1, g2, Options{Strategy: Proportional})
	if r.Verdict != NotEquivalent || r.Counterexample == nil {
		t.Fatalf("verdict = %v, ce = %v", r.Verdict, r.Counterexample)
	}
	// Verify the counterexample by direct simulation comparison: the two
	// circuits must produce different states on it.
	ceState := func(c *circuit.Circuit) []complex128 {
		s := make([]complex128, 8)
		s[*r.Counterexample] = 1
		for _, g := range c.Gates {
			applyTestGate(s, g)
		}
		return s
	}
	a, b := ceState(g1), ceState(g2)
	same := true
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Error("reported counterexample does not distinguish the circuits")
	}
}

func applyTestGate(s []complex128, g circuit.Gate) {
	if g.Kind == circuit.SWAP {
		panic("test helper does not support SWAP")
	}
	u := g.Matrix()
	mask := uint64(1) << uint(g.Target)
	for i := uint64(0); i < uint64(len(s)); i++ {
		if i&mask != 0 {
			continue
		}
		ok := true
		for _, c := range g.Controls {
			bit := (i >> uint(c.Qubit)) & 1
			if c.Neg == (bit == 1) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		j := i | mask
		a0, a1 := s[i], s[j]
		s[i] = u[0][0]*a0 + u[0][1]*a1
		s[j] = u[1][0]*a0 + u[1][1]*a1
	}
}

func TestStrategiesAgreeOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		g1 := randomCircuit(rng, 4, 25)
		var g2 *circuit.Circuit
		equivalent := trial%2 == 0
		if equivalent {
			g2 = g1.Clone()
			g2.Z(0).Z(0) // harmless pair
		} else {
			g2 = g1.Clone()
			idx := rng.Intn(len(g2.Gates))
			g2.Gates[idx] = circuit.Gate{Kind: circuit.Y, Target: g2.Gates[idx].Target, Target2: -1}
		}
		var verdicts []Verdict
		for _, s := range allStrategies() {
			verdicts = append(verdicts, Check(g1, g2, Options{Strategy: s}).Verdict)
		}
		for i := 1; i < len(verdicts); i++ {
			if verdicts[i] != verdicts[0] {
				t.Fatalf("trial %d: strategies disagree: %v", trial, verdicts)
			}
		}
		if equivalent && verdicts[0] != Equivalent {
			// A random Y replacement could coincide; equivalence trials are
			// constructed, so this must hold.
			t.Fatalf("trial %d: equivalent pair judged %v", trial, verdicts[0])
		}
	}
}

func TestResultMetadata(t *testing.T) {
	g := ghz(3)
	r := Check(g, g.Clone(), Options{Strategy: Proportional})
	if r.GatesApplied != 2*g.NumGates() {
		t.Errorf("GatesApplied = %d, want %d", r.GatesApplied, 2*g.NumGates())
	}
	if r.PeakNodes == 0 {
		t.Error("PeakNodes not recorded")
	}
	if r.Runtime <= 0 {
		t.Error("Runtime not recorded")
	}
	if r.Strategy != Proportional {
		t.Error("Strategy not propagated")
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range allStrategies() {
		if s.String() == "" {
			t.Error("empty strategy name")
		}
	}
	for _, v := range []Verdict{Equivalent, EquivalentUpToGlobalPhase, NotEquivalent, TimedOut} {
		if v.String() == "" {
			t.Error("empty verdict name")
		}
	}
}

func TestDeadlineAbortsInsideOperation(t *testing.T) {
	// A 14-qubit random circuit's construction involves multiplications far
	// larger than the per-gate deadline granularity; the in-operation
	// deadline must still bound the check to roughly the timeout.
	rng := rand.New(rand.NewSource(21))
	g1 := randomCircuit(rng, 14, 250)
	g2 := randomCircuit(rng, 14, 250)
	start := time.Now()
	r := Check(g1, g2, Options{Strategy: Construction, Timeout: 300 * time.Millisecond})
	elapsed := time.Since(start)
	if r.Verdict != TimedOut {
		t.Fatalf("verdict %v", r.Verdict)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("deadline overshoot: check took %v for a 300ms timeout", elapsed)
	}
}

// TestNodeLimitZeroUnbounded is the regression companion of
// TestNodeLimitVerdict: the exact pair that trips NodeLimit 100 must run to
// completion when the budget is 0 (documented "none") or negative — a
// 0-limit check must never raise a node-budget abort.
func TestNodeLimitZeroUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Same construction as TestNodeLimitVerdict but one size down, so the
	// unbounded runs stay sub-second (peak ~45k nodes, well past any small
	// budget).
	g1 := randomCircuit(rng, 6, 100)
	g2 := randomCircuit(rng, 6, 100)
	if s := Check(g1, g2, Options{Strategy: Sequential, NodeLimit: 100}); s.Cause != CauseNodeLimit {
		t.Fatalf("sanity: a 100-node budget did not trip (cause %v)", s.Cause)
	}
	for _, limit := range []int{0, -1} {
		r := Check(g1, g2, Options{Strategy: Sequential, NodeLimit: limit})
		if r.Cause == CauseNodeLimit {
			t.Fatalf("NodeLimit %d tripped a node budget: %s", limit, r.Reason)
		}
		if r.Verdict == TimedOut {
			t.Fatalf("NodeLimit %d: verdict = %v (%s), want a definitive verdict",
				limit, r.Verdict, r.Reason)
		}
	}
}
