package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/ecsat"
	"qcec/internal/errinject"
)

// The SAT comparison experiment pits three checkers against each other on
// the classical reversible benchmark class (the only class the paper's
// ref [17] baseline applies to): the SAT miter (internal/ecsat), the
// complete DD routine (internal/ec) and the simulation stage of the
// proposed flow.  It cross-validates all three and extends the paper's
// evaluation with the second baseline family it cites.

// SATRow is one line of the comparison.
type SATRow struct {
	Name           string
	N              int
	SizeG, SizeGp  int
	WantEquivalent bool

	SATVerdict ecsat.Verdict
	TSAT       time.Duration
	Vars       int
	Clauses    int

	DDVerdict ec.Verdict
	TDD       time.Duration

	SimVerdict core.Verdict
	NumSims    int
	TSim       time.Duration
}

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
		// Only the CNOT error classes keep the netlist classical (a
		// substituted H or an offset rotation would leave the SAT baseline's
		// domain).
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

// RunSATComparison runs the three checkers on every classical instance.
func RunSATComparison(instances []Instance, opts core.Options) ([]SATRow, error) {
	opts = withDefaults(opts)
	var rows []SATRow
	for _, inst := range instances {
		row := SATRow{
			Name: inst.Name, N: inst.N,
			SizeG: inst.G.NumGates(), SizeGp: inst.Gp.NumGates(),
			WantEquivalent: inst.WantEquivalent,
		}
		satRes, err := ecsat.Check(inst.G, inst.Gp, ecsat.Options{ConflictBudget: 2_000_000})
		if err != nil {
			return nil, fmt.Errorf("harness: SAT check on %s: %w", inst.Name, err)
		}
		row.SATVerdict = satRes.Verdict
		row.TSAT = satRes.Runtime
		row.Vars = satRes.Vars
		row.Clauses = satRes.Clauses

		ddRes := ec.Check(inst.G, inst.Gp, ec.Options{
			Strategy: opts.Strategy, Timeout: opts.ECTimeout, NodeLimit: opts.ECNodeLimit,
		})
		row.DDVerdict = ddRes.Verdict
		row.TDD = ddRes.Runtime

		rep := core.Check(inst.G, inst.Gp, core.Options{R: opts.R, Seed: opts.Seed, SkipEC: true})
		row.SimVerdict = rep.Verdict
		row.NumSims = rep.NumSims
		row.TSim = rep.SimTime

		rows = append(rows, row)
	}
	return rows, nil
}

// PrintSATComparison renders the three-way baseline table.
func PrintSATComparison(w io.Writer, rows []SATRow) {
	fmt.Fprintln(w, "SAT vs DD vs simulation on the classical reversible class (paper refs [17] vs [26] vs proposed)")
	fmt.Fprintf(w, "%-20s %4s %7s %7s  %-14s %9s %9s  %-12s %9s  %-20s %6s %9s\n",
		"Benchmark", "n", "|G|", "|G'|",
		"sat", "t_sat[s]", "clauses",
		"dd", "t_dd[s]",
		"sim", "#sims", "t_sim[s]")
	for _, r := range rows {
		sim := "no counterexample"
		if r.SimVerdict == core.NotEquivalent {
			sim = "not equivalent"
		}
		fmt.Fprintf(w, "%-20s %4d %7d %7d  %-14s %9.3f %9d  %-14s %9.3f  %-18s %6d %9.3f\n",
			r.Name, r.N, r.SizeG, r.SizeGp,
			r.SATVerdict, r.TSAT.Seconds(), r.Clauses,
			r.DDVerdict, r.TDD.Seconds(),
			sim, r.NumSims, r.TSim.Seconds())
	}
}
