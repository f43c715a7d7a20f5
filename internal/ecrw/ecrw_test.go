package ecrw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qcec/internal/circuit"
	"qcec/internal/ec"
)

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n, "rnd")
	for i := 0; i < gates; i++ {
		switch rng.Intn(5) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.RZ(rng.Float64(), rng.Intn(n))
		case 3:
			c.X(rng.Intn(n))
		case 4:
			a := rng.Intn(n)
			c.CX(a, (a+1+rng.Intn(n-1))%n)
		}
	}
	return c
}

func TestIdenticalCircuitsProven(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomCircuit(rng, 5, 40)
	res := Check(g, g.Clone())
	if res.Verdict != Equivalent {
		t.Fatalf("verdict %v (residual %d gates)", res.Verdict, res.ResidualGates)
	}
	if res.MiterGates != 80 {
		t.Errorf("miter gates = %d", res.MiterGates)
	}
}

func TestPeepholeVariantProven(t *testing.T) {
	// G' = G with an inserted cancelling pair and a fused rotation split.
	rng := rand.New(rand.NewSource(2))
	g := randomCircuit(rng, 4, 20)
	gp := circuit.New(4, "variant")
	for i, gate := range g.Gates {
		if gate.Kind == circuit.RZ {
			half := gate
			half.Params = []float64{gate.Params[0] / 2}
			gp.Add(half)
			gp.Add(half)
			continue
		}
		gp.Add(gate)
		if i == 7 {
			gp.H(2)
			gp.H(2)
		}
	}
	res := Check(g, gp)
	if res.Verdict != Equivalent {
		t.Fatalf("peephole variant not proven: residual %d", res.ResidualGates)
	}
}

func TestStructurallyDifferentInconclusive(t *testing.T) {
	// HXH = Z as single gates on both sides of a CX barrier the optimizer
	// cannot see through once it is part of a miter in the wrong order, plus
	// genuinely different circuits: must be Inconclusive, never NotEquiv.
	g1 := circuit.New(2, "a")
	g1.H(0).CX(0, 1).H(0)
	g2 := circuit.New(2, "b")
	g2.X(1).CX(0, 1).X(1) // different function
	res := Check(g1, g2)
	if res.Verdict != Inconclusive {
		t.Fatalf("verdict %v for non-equivalent pair", res.Verdict)
	}
}

func TestRegisterMismatch(t *testing.T) {
	res := Check(circuit.New(2, "a"), circuit.New(3, "b"))
	if res.Verdict != Inconclusive {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

// Property: ecrw is sound — whenever it says Equivalent, the DD checker
// agrees.
func TestQuickSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		g1 := randomCircuit(rng, n, 20)
		var g2 *circuit.Circuit
		if seed%2 == 0 {
			g2 = g1.Clone()
			g2.S(0)
			g2.Sdg(0)
		} else {
			g2 = randomCircuit(rng, n, 20)
		}
		res := Check(g1, g2)
		if res.Verdict != Equivalent {
			return true // inconclusive is always sound
		}
		r := ec.Check(g1, g2, ec.Options{Strategy: ec.Proportional})
		return r.Verdict == ec.Equivalent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := circuit.New(2, "g")
	g.H(0).CX(0, 1)
	res := Check(g, g.Clone())
	if res.RewritePasses == 0 || res.CancelledPairs == 0 {
		t.Errorf("stats not populated: %+v", res)
	}
	if res.Verdict.String() == "" || Inconclusive.String() == "" {
		t.Error("verdict names empty")
	}
}
