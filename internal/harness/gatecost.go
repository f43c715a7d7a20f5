package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"qcec/internal/core"
	"qcec/internal/ec"
)

// GateCostSchemes lists the application schemes the compilation-flow
// experiment races, in print order.
var GateCostSchemes = []ec.Strategy{ec.Sequential, ec.Proportional, ec.Lookahead, ec.StrategyGateCost}

// GateCostCell is one scheme's measurement on one compiled pair.
type GateCostCell struct {
	Verdict   ec.Verdict
	Runtime   time.Duration
	PeakNodes int
	// Muls counts DD matrix multiplications: applied gates plus the
	// Lookahead scheme's speculative probes (Result.ProbeMuls), so the
	// schemes are compared on equal work terms.
	Muls int
}

// GateCostRow is the four-scheme comparison for one deeply-compiled pair.
type GateCostRow struct {
	Name       string
	N          int
	SizeG      int
	SizeGp     int
	Equivalent bool // ground truth
	Injection  string
	// Cells[i] corresponds to GateCostSchemes[i].
	Cells []GateCostCell
	// VerdictParity is true when every scheme reached the same verdict.
	VerdictParity bool
	// NodeRatio is proportional peak nodes / gate-cost peak nodes (0 when
	// either is unavailable).
	NodeRatio float64
}

// RunGateCostComparison races the four application schemes over the
// deeply-compiled workload (CompiledSuite): every scheme checks the
// same source-vs-compiled pair, with the gate-cost scheme driven by the
// flow's native cost profile.
func RunGateCostComparison(seed int64, opts core.Options) ([]GateCostRow, error) {
	opts = withDefaults(opts)
	pairs, err := CompiledSuite(seed)
	if err != nil {
		return nil, err
	}
	rows := make([]GateCostRow, 0, len(pairs))
	for _, pair := range pairs {
		row := GateCostRow{
			Name:       pair.Name,
			N:          pair.Source.N,
			SizeG:      pair.Source.NumGates(),
			SizeGp:     pair.Compiled.NumGates(),
			Equivalent: pair.Equivalent,
			Injection:  pair.Injection,
		}
		var prop, gc GateCostCell
		parity := true
		for k, strat := range GateCostSchemes {
			ecOpts := opts.ECOptions()
			ecOpts.Strategy = strat
			if strat == ec.StrategyGateCost {
				ecOpts.CostProfile = pair.Profile
			}
			res := ec.Check(pair.Source, pair.Compiled, ecOpts)
			cell := GateCostCell{
				Verdict:   res.Verdict,
				Runtime:   res.Runtime,
				PeakNodes: res.PeakNodes,
				Muls:      res.GatesApplied + res.ProbeMuls,
			}
			row.Cells = append(row.Cells, cell)
			if k > 0 && cell.Verdict != row.Cells[0].Verdict {
				parity = false
			}
			switch strat {
			case ec.Proportional:
				prop = cell
			case ec.StrategyGateCost:
				gc = cell
			}
		}
		row.VerdictParity = parity
		if prop.PeakNodes > 0 && gc.PeakNodes > 0 {
			row.NodeRatio = float64(prop.PeakNodes) / float64(gc.PeakNodes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GateCostGeomeanRatio is the geometric mean of proportional-over-gate-cost
// peak-node ratios across the clean (equivalent) pairs — the number the
// bench gate enforces.  Mutant rows are excluded: a detected error ends the
// run at the first diverging column, so their peaks measure detection
// latency, not schedule quality.
func GateCostGeomeanRatio(rows []GateCostRow) float64 {
	logSum, count := 0.0, 0
	for _, r := range rows {
		if r.Equivalent && r.NodeRatio > 0 {
			logSum += math.Log(r.NodeRatio)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Exp(logSum / float64(count))
}

// PrintGateCostComparison renders the scheme comparison table.
func PrintGateCostComparison(w io.Writer, rows []GateCostRow) {
	fmt.Fprintln(w, "Compilation-flow verification — application-scheme comparison (peak DD nodes / multiplications / time)")
	fmt.Fprintf(w, "%-18s %3s %6s %7s", "pair", "n", "|G|", "|G'|")
	for _, s := range GateCostSchemes {
		fmt.Fprintf(w, " %22s", s)
	}
	fmt.Fprintf(w, " %7s %7s\n", "ratio", "parity")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %3d %6d %7d", r.Name, r.N, r.SizeG, r.SizeGp)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %8d/%6d/%.3fs", c.PeakNodes, c.Muls, c.Runtime.Seconds())
		}
		ratio := "-"
		if r.NodeRatio > 0 {
			ratio = fmt.Sprintf("%.1fx", r.NodeRatio)
		}
		fmt.Fprintf(w, " %7s %7v\n", ratio, r.VerdictParity)
	}
	if g := GateCostGeomeanRatio(rows); g > 0 {
		fmt.Fprintf(w, "geomean peak-node ratio (proportional / gate-cost, equivalent pairs): %.2fx\n", g)
	}
}

// WriteGateCostCSV writes the comparison as CSV.
func WriteGateCostCSV(w io.Writer, rows []GateCostRow) error {
	header := "pair,n,gates_g,gates_gp,equivalent,injection"
	for _, s := range GateCostSchemes {
		header += fmt.Sprintf(",%s_verdict,%s_peak,%s_muls,%s_seconds", s, s, s, s)
	}
	if _, err := fmt.Fprintln(w, header+",node_ratio,parity"); err != nil {
		return err
	}
	for _, r := range rows {
		line := fmt.Sprintf("%s,%d,%d,%d,%v,%q", r.Name, r.N, r.SizeG, r.SizeGp, r.Equivalent, r.Injection)
		for _, c := range r.Cells {
			line += fmt.Sprintf(",%s,%d,%d,%.6f", c.Verdict, c.PeakNodes, c.Muls, c.Runtime.Seconds())
		}
		line += fmt.Sprintf(",%.3f,%v", r.NodeRatio, r.VerdictParity)
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
