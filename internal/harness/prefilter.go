package harness

import (
	"fmt"
	"io"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/decompose"
	"qcec/internal/ecrw"
	"qcec/internal/mapping"
	"qcec/internal/opt"
	"qcec/internal/zx"
)

// The prefilter experiment compares the two sound-but-incomplete provers
// (gate-level rewriting, paper ref [16]; ZX-calculus rewriting) against the
// proposed simulation flow on three classes of equivalent pairs of
// increasing difficulty: peephole recompilations, Clifford recompilations,
// and decomposed+mapped realizations.  It demonstrates where each method
// concludes and where only the paper's flow still gives an answer.

// PrefilterRow is one line of the comparison.
type PrefilterRow struct {
	Name    string
	Class   string
	N       int
	SizeG   int
	SizeGp  int
	Rewrite ecrw.Verdict
	TRW     time.Duration
	ZX      zx.Verdict
	TZX     time.Duration
	Flow    core.Verdict
	TFlow   time.Duration
}

// BuildPrefilterSuite builds the three instance classes.
func BuildPrefilterSuite(scale Scale) ([]Instance, []string, error) {
	gates := 40
	n := 5
	if scale >= Medium {
		gates, n = 120, 7
	}
	var instances []Instance
	var classes []string

	add := func(name, class string, g, gp *circuit.Circuit, perm []int) {
		instances = append(instances, Instance{
			Name: name, N: g.N, G: g, Gp: gp, OutputPerm: perm, WantEquivalent: true,
		})
		classes = append(classes, class)
	}

	// Class 1: peephole recompilation (inserted cancelling pairs, split
	// rotations) — both prefilters should prove these.
	base1 := cliffordTCircuit(n, gates, 101)
	peep := splitRotations(base1)
	peep.H(0)
	peep.H(0)
	add("peephole", "peephole", base1, peep, nil)

	// Class 2: Clifford recompilation (commuted CZs, HXH rewrites) — ZX
	// should prove these, gate-level rewriting mostly cannot.
	base2 := cliffordCircuit(n, gates, 102)
	add("clifford-recompile", "clifford", base2, cliffordRecompile(base2), nil)

	// Class 3: decomposed and mapped realization — only the flow concludes.
	base3 := cliffordTCircuit(n, gates/2, 103)
	lowered := decompose.Circuit(base3, decompose.LevelCX)
	mapped, err := mapping.Map(lowered, mapping.Options{Arch: Linear(n), RestoreLayout: true})
	if err != nil {
		return nil, nil, err
	}
	o, _ := opt.Optimize(mapped.Circuit, opt.Options{})
	add("decompose+map", "mapped", base3, o, nil)

	return instances, classes, nil
}

// Linear re-exports the linear architecture for the prefilter suite.
func Linear(n int) *mapping.Architecture { return mapping.Linear(n) }

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

func cliffordTCircuit(n, gates int, seed int64) *circuit.Circuit {
	return baseCircuit(n, gates, seed)
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

// RunPrefilterComparison runs all three checkers on the suite.
func RunPrefilterComparison(instances []Instance, classes []string, opts core.Options) ([]PrefilterRow, error) {
	opts = withDefaults(opts)
	var rows []PrefilterRow
	for i, inst := range instances {
		row := PrefilterRow{
			Name: inst.Name, Class: classes[i], N: inst.N,
			SizeG: inst.G.NumGates(), SizeGp: inst.Gp.NumGates(),
		}
		rw := ecrw.Check(inst.G, inst.Gp)
		row.Rewrite = rw.Verdict
		row.TRW = rw.Runtime

		zr, err := zx.Check(inst.G, inst.Gp)
		if err != nil {
			return nil, fmt.Errorf("harness: ZX on %s: %w", inst.Name, err)
		}
		row.ZX = zr.Verdict
		row.TZX = zr.Runtime

		rep := core.Check(inst.G, inst.Gp, core.Options{
			R: opts.R, Seed: opts.Seed, Strategy: opts.Strategy,
			ECTimeout: opts.ECTimeout, ECNodeLimit: opts.ECNodeLimit,
			OutputPerm: inst.OutputPerm,
		})
		row.Flow = rep.Verdict
		row.TFlow = rep.TotalTime
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintPrefilterComparison renders the three-method table.
func PrintPrefilterComparison(w io.Writer, rows []PrefilterRow) {
	fmt.Fprintln(w, "Prefilter comparison on equivalent pairs (rewriting [16] vs ZX vs proposed flow)")
	fmt.Fprintf(w, "%-20s %-10s %4s %6s %7s  %-13s %9s  %-13s %9s  %-30s %9s\n",
		"Pair", "class", "n", "|G|", "|G'|",
		"rewrite", "t[s]", "zx", "t[s]", "flow", "t[s]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-10s %4d %6d %7d  %-13s %9.4f  %-13s %9.4f  %-30s %9.4f\n",
			r.Name, r.Class, r.N, r.SizeG, r.SizeGp,
			r.Rewrite, r.TRW.Seconds(),
			r.ZX, r.TZX.Seconds(),
			r.Flow, r.TFlow.Seconds())
	}
}
