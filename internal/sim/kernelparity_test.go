package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qcec/internal/circuit"
	"qcec/internal/dd"
)

// randomParityGate draws a gate of any kind (every non-custom Kind,
// including SWAP), with 0–2 positive or negative controls.
func randomParityGate(rng *rand.Rand, n int) circuit.Gate {
	kinds := []circuit.Kind{
		circuit.I, circuit.X, circuit.Y, circuit.Z, circuit.H,
		circuit.S, circuit.Sdg, circuit.T, circuit.Tdg,
		circuit.SX, circuit.SXdg, circuit.RX, circuit.RY, circuit.RZ,
		circuit.P, circuit.U2, circuit.U3, circuit.SWAP,
	}
	g := circuit.Gate{Kind: kinds[rng.Intn(len(kinds))], Target2: -1}
	switch g.Kind {
	case circuit.RX, circuit.RY, circuit.RZ, circuit.P:
		g.Params = []float64{rng.Float64() * 2 * math.Pi}
	case circuit.U2:
		g.Params = []float64{rng.Float64() * 2 * math.Pi, rng.Float64() * 2 * math.Pi}
	case circuit.U3:
		g.Params = []float64{rng.Float64() * math.Pi, rng.Float64() * 2 * math.Pi, rng.Float64() * 2 * math.Pi}
	}
	perm := rng.Perm(n)
	g.Target = perm[0]
	used := 1
	if g.Kind == circuit.SWAP {
		if n < 2 {
			g.Kind = circuit.X
		} else {
			g.Target2 = perm[1]
			used = 2
		}
	}
	for k := rng.Intn(3); k > 0 && used < n; k-- {
		g.Controls = append(g.Controls, circuit.Control{
			Qubit: perm[used], Neg: rng.Intn(2) == 1,
		})
		used++
	}
	return g
}

func randomParityCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n, "rand")
	for i := 0; i < gates; i++ {
		c.Gates = append(c.Gates, randomParityGate(rng, n))
	}
	return c
}

// TestKernelParityRandomCircuits runs random circuits through the kernel
// and the legacy GateDD+MulMV path on the same package and demands
// bit-identical root edges (same node pointer, same interned weight) after
// every gate.
func TestKernelParityRandomCircuits(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(n) + seed))
			c := randomParityCircuit(rng, n, 24)
			p := dd.NewDefault(n)
			input := rng.Uint64() & (uint64(1)<<uint(n) - 1)
			kernel := p.BasisState(input)
			legacy := kernel
			for gi, g := range c.Gates {
				kernel = ApplyGate(p, kernel, g)
				legacy = ApplyGateLegacy(p, legacy, g)
				if kernel != legacy {
					t.Fatalf("n=%d seed=%d: divergence after gate %d (%v): kernel %v, legacy %v",
						n, seed, gi, g.Kind, kernel, legacy)
				}
			}
		}
	}
}

// TestKernelParitySimulatorRuns checks whole Simulator runs against the
// legacy reference run on a separate package: all amplitudes must agree
// (separate packages, so pointer identity does not apply).
func TestKernelParitySimulatorRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(4)
		c := randomParityCircuit(rng, n, 30)
		input := rng.Uint64() & (uint64(1)<<uint(n) - 1)

		fast := New(n)
		slow := dd.NewDefault(n)
		vFast := fast.P.Vector(fast.Run(c, input))
		st, slowApplied := runLegacy(slow, c, input)
		vSlow := slow.Vector(st)
		for i := range vFast {
			if d := vFast[i] - vSlow[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("trial %d: amplitude[%d] kernel %v, legacy %v", trial, i, vFast[i], vSlow[i])
			}
		}
		if fast.GatesApplied != slowApplied {
			t.Fatalf("trial %d: %d kernel gate applications vs %d legacy",
				trial, fast.GatesApplied, slowApplied)
		}
	}
}

// TestSwapAsCXsDoesNotMutateControls guards the swapAsCXs allocation fix:
// expanding a controlled SWAP must neither mutate the input gate's controls
// nor hand out factors whose control slices alias the input's backing array.
func TestSwapAsCXsDoesNotMutateControls(t *testing.T) {
	controls := []circuit.Control{{Qubit: 2}, {Qubit: 3, Neg: true}}
	g := circuit.Gate{Kind: circuit.SWAP, Target: 0, Target2: 1, Controls: controls}
	snapshot := append([]circuit.Control(nil), controls...)

	cxs := swapAsCXs(g)
	if !reflect.DeepEqual(g.Controls, snapshot) {
		t.Fatalf("input controls mutated: %v", g.Controls)
	}
	for i := range cxs {
		if len(cxs[i].Controls) != len(controls)+1 {
			t.Fatalf("factor %d has %d controls, want %d", i, len(cxs[i].Controls), len(controls)+1)
		}
		for j := range cxs[i].Controls {
			cxs[i].Controls[j].Qubit = -99 // scribble over every factor
			cxs[i].Controls[j].Neg = !cxs[i].Controls[j].Neg
		}
	}
	if !reflect.DeepEqual(g.Controls, snapshot) {
		t.Fatalf("scribbling on the factors reached the input gate: %v", g.Controls)
	}

	// Applying a controlled SWAP end to end must leave the gate unchanged too.
	g.Controls = append([]circuit.Control(nil), snapshot...)
	p := dd.NewDefault(4)
	ApplyGate(p, p.BasisState(0b1101), g)
	ApplyGateLegacy(p, p.BasisState(0b1101), g)
	if !reflect.DeepEqual(g.Controls, snapshot) {
		t.Fatalf("ApplyGate mutated the input controls: %v", g.Controls)
	}
}
