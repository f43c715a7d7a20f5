package harness

import (
	"qcec/internal/circuit"
	"qcec/internal/decompose"
	"qcec/internal/mapping"
	"qcec/internal/opt"
)

// The prefilter suite holds three classes of equivalent pairs of
// increasing difficulty for the incomplete provers (gate-level rewriting,
// paper ref [16]; ZX-calculus rewriting): peephole recompilations,
// Clifford recompilations, and decomposed+mapped realizations.  The prover
// census runs it to show where each prover concludes and where only the
// paper's flow still gives an answer.

// BuildPrefilterSuite builds the three instance classes.
func BuildPrefilterSuite(scale Scale) ([]Instance, error) {
	gates := 40
	n := 5
	if scale >= Medium {
		gates, n = 120, 7
	}
	var instances []Instance
	add := func(name string, g, gp *circuit.Circuit) {
		instances = append(instances, Instance{Name: name, N: g.N, G: g, Gp: gp, WantEquivalent: true})
	}

	// Class 1: peephole recompilation (inserted cancelling pairs, split
	// rotations) — both incomplete provers should prove these.
	base1 := baseCircuit(n, gates, 101) // H/T/S/CX mix
	peep := splitRotations(base1)
	peep.H(0)
	peep.H(0)
	add("peephole", base1, peep)

	// Class 2: Clifford recompilation (commuted CZs, HXH rewrites) — ZX
	// should prove these, gate-level rewriting mostly cannot.
	base2 := cliffordCircuit(n, gates, 102)
	add("clifford-recompile", base2, cliffordRecompile(base2))

	// Class 3: decomposed and mapped realization — gate rewriting cannot
	// conclude; the flow always does.
	base3 := baseCircuit(n, gates/2, 103)
	lowered := decompose.Circuit(base3, decompose.LevelCX)
	mapped, err := mapping.Map(lowered, mapping.Options{Arch: mapping.Linear(n), RestoreLayout: true})
	if err != nil {
		return nil, err
	}
	o, _ := opt.Optimize(mapped.Circuit, opt.Options{})
	add("decompose+map", base3, o)
	return instances, nil
}

func cliffordCircuit(n, gates int, seed int64) *circuit.Circuit {
	c := baseCircuit(n, gates, seed) // H/T/S/CX mix
	out := circuit.New(n, "clifford")
	for _, g := range c.Gates {
		if g.Kind == circuit.T {
			out.S(g.Target) // keep it Clifford
			continue
		}
		out.Add(g)
	}
	return out
}

// cliffordRecompile produces an equivalent variant via commutations and
// identities that peephole matching cannot undo.
func cliffordRecompile(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.N, c.Name+"_re")
	for _, g := range c.Gates {
		switch {
		case g.Kind == circuit.Z && len(g.Controls) == 0:
			out.H(g.Target)
			out.X(g.Target)
			out.H(g.Target)
		case g.Kind == circuit.S && len(g.Controls) == 0:
			// S = T·T? stays Clifford-provable via fusion: use Z·Sdg.
			out.Z(g.Target)
			out.Sdg(g.Target)
		case g.Kind == circuit.Z && len(g.Controls) == 1:
			// CZ is symmetric.
			out.CZ(g.Target, g.Controls[0].Qubit)
		default:
			out.Add(g)
		}
	}
	return out
}
