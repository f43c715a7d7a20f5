package zx

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qcec/internal/circuit"
	"qcec/internal/circuitfile"
	"qcec/internal/ec"
)

// ddEquivalent is the oracle: DD-based equivalence up to global phase.
func ddEquivalent(t *testing.T, g1, g2 *circuit.Circuit) bool {
	t.Helper()
	r := ec.Check(g1, g2, ec.Options{Strategy: ec.Proportional, UpToGlobalPhase: true})
	return r.Equivalent()
}

func randomClifford(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n, "clifford")
	for i := 0; i < gates; i++ {
		switch rng.Intn(5) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.S(rng.Intn(n))
		case 2:
			c.Z(rng.Intn(n))
		case 3:
			a := rng.Intn(n)
			c.CX(a, (a+1+rng.Intn(n-1))%n)
		case 4:
			a := rng.Intn(n)
			c.CZ(a, (a+1+rng.Intn(n-1))%n)
		}
	}
	return c
}

func randomCliffordT(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := randomClifford(rng, n, gates)
	for i := 0; i < gates/4; i++ {
		c.T(rng.Intn(n))
	}
	return c
}

func TestEmptyCircuitIdentity(t *testing.T) {
	g := circuit.New(3, "id")
	res, err := Check(g, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != EquivalentUpToPhase {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestSingleGateMiters(t *testing.T) {
	// G·G⁻¹ must reduce to identity for every supported gate kind.
	mk := func(build func(c *circuit.Circuit)) *circuit.Circuit {
		c := circuit.New(3, "g")
		build(c)
		return c
	}
	cases := []*circuit.Circuit{
		mk(func(c *circuit.Circuit) { c.H(0) }),
		mk(func(c *circuit.Circuit) { c.X(1) }),
		mk(func(c *circuit.Circuit) { c.Y(1) }),
		mk(func(c *circuit.Circuit) { c.Z(2) }),
		mk(func(c *circuit.Circuit) { c.S(0) }),
		mk(func(c *circuit.Circuit) { c.T(0) }),
		mk(func(c *circuit.Circuit) { c.SX(2) }),
		mk(func(c *circuit.Circuit) { c.RX(0.7, 0) }),
		mk(func(c *circuit.Circuit) { c.RY(1.2, 1) }),
		mk(func(c *circuit.Circuit) { c.RZ(-0.4, 2) }),
		mk(func(c *circuit.Circuit) { c.Phase(0.9, 0) }),
		mk(func(c *circuit.Circuit) { c.U3(0.3, 0.6, -1.1, 1) }),
		mk(func(c *circuit.Circuit) { c.CX(0, 1) }),
		mk(func(c *circuit.Circuit) { c.CZ(1, 2) }),
		mk(func(c *circuit.Circuit) { c.Swap(0, 2) }),
	}
	for i, g := range cases {
		res, err := Check(g, g.Clone())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Verdict != EquivalentUpToPhase {
			t.Errorf("case %d (%s): verdict %v (spiders %d -> %d)",
				i, g.Gates[0], res.Verdict, res.SpidersBefore, res.SpidersAfter)
		}
	}
}

func TestCliffordMitersReduce(t *testing.T) {
	// Random Clifford circuits against themselves: the full reduction must
	// collapse the miter completely (Clifford completeness of the
	// lcomp/pivot procedure on these instances).
	rng := rand.New(rand.NewSource(3))
	reduced := 0
	total := 0
	for trial := 0; trial < 20; trial++ {
		g := randomClifford(rng, 4, 30)
		res, err := Check(g, g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		total++
		if res.Verdict == EquivalentUpToPhase {
			reduced++
		}
	}
	if reduced < total*3/4 {
		t.Errorf("only %d/%d Clifford self-miters reduced to identity", reduced, total)
	}
	t.Logf("Clifford self-miters fully reduced: %d/%d", reduced, total)
}

func TestRecompiledCliffordProven(t *testing.T) {
	// HXH = Z, SS = Z, CZ symmetry: rewritten variants the gate-level
	// matcher may miss but fusion handles.
	g1 := circuit.New(2, "a")
	g1.Z(0).CZ(0, 1)
	g2 := circuit.New(2, "b")
	g2.H(0).X(0).H(0).CZ(1, 0) // HXH = Z and CZ is symmetric
	res, err := Check(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != EquivalentUpToPhase {
		t.Fatalf("verdict %v", res.Verdict)
	}

	g3 := circuit.New(1, "s2")
	g3.S(0).S(0)
	g4 := circuit.New(1, "z")
	g4.Z(0)
	res, err = Check(g3, g4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != EquivalentUpToPhase {
		t.Fatalf("S·S vs Z: %v", res.Verdict)
	}
}

func TestCommutedCZsProven(t *testing.T) {
	g1 := circuit.New(3, "a")
	g1.CZ(0, 1).CZ(1, 2).CZ(0, 2)
	g2 := circuit.New(3, "b")
	g2.CZ(0, 2).CZ(0, 1).CZ(1, 2) // CZs commute
	res, err := Check(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != EquivalentUpToPhase {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestRotationFusionProven(t *testing.T) {
	g1 := circuit.New(1, "a")
	g1.RZ(0.3, 0).RZ(0.4, 0)
	g2 := circuit.New(1, "b")
	g2.RZ(0.7, 0)
	res, err := Check(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != EquivalentUpToPhase {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestNonEquivalentNeverProven(t *testing.T) {
	g1 := circuit.New(2, "a")
	g1.H(0).CX(0, 1)
	g2 := circuit.New(2, "b")
	g2.H(0).CX(0, 1).Z(1)
	res, err := Check(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == EquivalentUpToPhase {
		t.Fatal("ZX proved a non-equivalent pair equivalent")
	}
}

func TestMultiControlledLowered(t *testing.T) {
	g := circuit.New(4, "mcx")
	g.MCX([]int{0, 1, 2}, 3)
	res, err := Check(g, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Lowered to Clifford+T; the self-miter may or may not fully reduce —
	// but it must never error and never be wrong.
	_ = res
}

func TestRegisterMismatch(t *testing.T) {
	res, err := Check(circuit.New(2, "a"), circuit.New(3, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inconclusive {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

// Property: soundness — whenever ZX says equivalent, the DD checker agrees
// (up to global phase), over random Clifford+T pairs.
func TestQuickSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		g1 := randomCliffordT(rng, n, 15)
		var g2 *circuit.Circuit
		switch seed % 3 {
		case 0:
			g2 = g1.Clone()
		case 1:
			g2 = g1.Clone()
			g2.RZ(0.25, rng.Intn(n)) // tiny real difference
		default:
			g2 = randomCliffordT(rng, n, 15)
		}
		res, err := Check(g1, g2)
		if err != nil {
			return false
		}
		if res.Verdict != EquivalentUpToPhase {
			return true // inconclusive is always sound
		}
		return ddEquivalent(t, g1, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: self-miters of supported single-qubit rotations always reduce.
func TestQuickRotationSelfMiters(t *testing.T) {
	f := func(theta float64) bool {
		theta = math.Mod(theta, 2*math.Pi)
		if math.IsNaN(theta) {
			return true
		}
		g := circuit.New(2, "rot")
		g.RZ(theta, 0).RX(theta/2, 1).CX(0, 1)
		res, err := Check(g, g.Clone())
		if err != nil {
			return false
		}
		return res.Verdict == EquivalentUpToPhase
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStatsReported(t *testing.T) {
	g := circuit.New(2, "g")
	g.H(0).CX(0, 1).S(1)
	res, err := Check(g, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.SpidersBefore == 0 {
		t.Errorf("stats missing: %+v", res)
	}
	if res.Verdict.String() == "" || Inconclusive.String() == "" {
		t.Error("verdict names empty")
	}
	var g2 *Graph = NewGraph()
	if g2.Stats() == "" {
		t.Error("graph stats empty")
	}
}

// lateCtx is a context that reports cancellation from its (after+1)-th Err
// call on, so a test can cancel it right after a reduction polled it for
// the last time.
type lateCtx struct {
	context.Context
	calls, after int
}

func (c *lateCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelledOnlyWhenStopped: an inconclusive result reads cancelled only
// when the context stopped the reduction.  A reduction that reaches its
// fixpoint while the context is live stays uncancelled even if the context
// is cancelled straight afterwards; a context cancelled beforehand stops
// the reduction at its first poll.
func TestCancelledOnlyWhenStopped(t *testing.T) {
	g1 := circuit.New(2, "g")
	g1.H(0).CX(0, 1).T(1)
	g2 := circuit.New(2, "g'")
	g2.H(0).CX(0, 1).T(0)

	// Count the polls of the reduction CheckCtx runs, on the same miter,
	// and those CheckCtx makes before it: one after each lowering and one
	// per pollGates gates of the translation.
	miter := lower(g2).Clone()
	miter.Append(lower(g1).Inverse())
	g, _, _, err := FromCircuit(miter)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	g.SetCancel(func() bool { polls++; return false })
	if g.Simplify() || polls == 0 {
		t.Fatalf("reduction with a live hook: stopped, or polled %d times", polls)
	}
	before := 2 + (len(miter.Gates)+pollGates-1)/pollGates

	late := &lateCtx{Context: context.Background(), after: before + polls}
	res, err := CheckCtx(late, g1, g2)
	if err != nil || res.Verdict != Inconclusive || res.Cancelled {
		t.Errorf("context cancelled after the reduction: %+v (err %v), want an uncancelled inconclusive result", res, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = CheckCtx(ctx, g1, g2)
	if err != nil || res.Verdict != Inconclusive || !res.Cancelled {
		t.Errorf("context cancelled beforehand: %+v (err %v), want a cancelled inconclusive result", res, err)
	}
}

// TestCancelledBeforeTranslation: a context cancelled before the check
// starts stops it before the miter becomes a graph, so a losing race
// prover does not build the hwb5 miter's 7,412 spiders first.
func TestCancelledBeforeTranslation(t *testing.T) {
	g, err := circuitfile.Load("../../circuits/hwb5.real")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckCtx(ctx, g, g.Clone())
	if err != nil || res.Verdict != Inconclusive || !res.Cancelled || res.SpidersBefore != 0 {
		t.Errorf("cancelled hwb5 check: %+v (err %v), want cancelled before any spider was built", res, err)
	}
}
