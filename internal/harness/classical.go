package harness

import (
	"fmt"
	"math/rand"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/errinject"
)

// The classical reversible suite holds the paper's reversible benchmark
// class as unlowered MCT netlists, the shape on which the miter rewriting
// of the "rewrite" prover pays off; the prover census runs it.

// shuffleControls returns a functionally identical circuit whose control
// lists are re-ordered and that carries a few inserted cancelling CX pairs —
// a cheap but honest "different file, same function" variant.
func shuffleControls(c *circuit.Circuit, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	out := circuit.New(c.N, c.Name+"_shuffled")
	for _, g := range c.Gates {
		h := g
		if len(h.Controls) > 1 {
			h.Controls = append([]circuit.Control(nil), g.Controls...)
			rng.Shuffle(len(h.Controls), func(i, j int) {
				h.Controls[i], h.Controls[j] = h.Controls[j], h.Controls[i]
			})
		}
		out.Add(h)
		if c.N >= 2 && rng.Intn(4) == 0 {
			a := rng.Intn(c.N)
			b := (a + 1 + rng.Intn(c.N-1)) % c.N
			out.CX(a, b)
			out.CX(a, b)
		}
	}
	return out
}

// BuildClassicalSuite builds (G, G') pairs where both sides are classical
// reversible netlists: an equivalent shuffled variant and an error-injected
// variant per benchmark.
func BuildClassicalSuite(scale Scale, seed int64) ([]Instance, error) {
	type gen struct {
		name  string
		build func() (*circuit.Circuit, error)
	}
	var gens []gen
	switch scale {
	case Small:
		gens = []gen{
			{"hwb5", func() (*circuit.Circuit, error) { return bench.HWB(5) }},
			{"urf5-like", func() (*circuit.Circuit, error) { return bench.RandomReversible(5, 4) }},
			{"inc8", func() (*circuit.Circuit, error) { return bench.Increment(8, 3), nil }},
			{"rd4", func() (*circuit.Circuit, error) { return bench.RD(4) }},
			{"maj5", func() (*circuit.Circuit, error) { return bench.Majority(5) }},
		}
	case Medium:
		gens = []gen{
			{"hwb7", func() (*circuit.Circuit, error) { return bench.HWB(7) }},
			{"urf7-like", func() (*circuit.Circuit, error) { return bench.RandomReversible(7, 4) }},
			{"inc10", func() (*circuit.Circuit, error) { return bench.Increment(10, 3), nil }},
			{"rd6", func() (*circuit.Circuit, error) { return bench.RD(6) }},
			{"cmp7", func() (*circuit.Circuit, error) { return bench.Comparator(7) }},
		}
	default:
		gens = []gen{
			{"hwb9", func() (*circuit.Circuit, error) { return bench.HWB(9) }},
			{"urf9-like", func() (*circuit.Circuit, error) { return bench.RandomReversible(9, 4) }},
			{"inc12", func() (*circuit.Circuit, error) { return bench.Increment(12, 3), nil }},
			{"rd8", func() (*circuit.Circuit, error) { return bench.RD(8) }},
			{"cmp11", func() (*circuit.Circuit, error) { return bench.Comparator(11) }},
			{"5xp1", bench.FiveXP1},
		}
	}
	var out []Instance
	for i, g := range gens {
		c, err := g.build()
		if err != nil {
			return nil, fmt.Errorf("harness: building %s: %w", g.name, err)
		}
		eq := shuffleControls(c, seed+int64(i))
		out = append(out, Instance{
			Name: g.name, N: c.N, G: c, Gp: eq, WantEquivalent: true,
		})
		// Only the CNOT error classes keep the netlist classical: a
		// substituted H or an offset rotation would move the mutant out of
		// the reversible class the suite stands for.
		buggy, inj, err := injectClassical(eq, seed+int64(1000+i))
		if err != nil {
			return nil, fmt.Errorf("harness: injecting into %s: %w", g.name, err)
		}
		out = append(out, Instance{
			Name: g.name + " (buggy)", N: c.N, G: c, Gp: buggy,
			WantEquivalent: false, Injection: inj.String(),
		})
	}
	return out, nil
}

// injectClassical plants a CNOT-class error (the classical subset of the
// paper's error model), retrying classes until one applies.
func injectClassical(c *circuit.Circuit, seed int64) (*circuit.Circuit, errinject.Injection, error) {
	kinds := []errinject.Kind{errinject.MisplacedCNOT, errinject.RemovedCNOT, errinject.FlippedCNOT}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var lastErr error
	for _, k := range kinds {
		out, inj, err := errinject.Inject(c, k, rng.Int63())
		if err == nil {
			return out, inj, nil
		}
		lastErr = err
	}
	return nil, errinject.Injection{}, lastErr
}
