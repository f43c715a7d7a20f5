package harness

import (
	"fmt"
	"io"
	"time"

	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/errinject"
)

// StrategyRow compares the complete-EC strategies on one instance — the
// ablation for the design choice between construction, sequential,
// proportional and lookahead schemes (paper ref [22]).
type StrategyRow struct {
	Name      string
	Strategy  ec.Strategy
	Verdict   ec.Verdict
	Runtime   time.Duration
	PeakNodes int
}

// RunStrategyAblation checks every instance with every strategy.
func RunStrategyAblation(instances []Instance, opts core.Options) []StrategyRow {
	opts = withDefaults(opts)
	var rows []StrategyRow
	for _, inst := range instances {
		for _, s := range []ec.Strategy{ec.Construction, ec.Sequential, ec.Proportional, ec.Lookahead} {
			r := ec.Check(inst.G, inst.Gp, ec.Options{
				Strategy:   s,
				Timeout:    opts.ECTimeout,
				NodeLimit:  opts.ECNodeLimit,
				OutputPerm: inst.OutputPerm,
			})
			rows = append(rows, StrategyRow{
				Name: inst.Name, Strategy: s, Verdict: r.Verdict,
				Runtime: r.Runtime, PeakNodes: r.PeakNodes,
			})
		}
	}
	return rows
}

// PrintStrategyAblation renders the strategy comparison.
func PrintStrategyAblation(w io.Writer, rows []StrategyRow) {
	fmt.Fprintln(w, "EC strategy ablation (complete routine only)")
	fmt.Fprintf(w, "%-28s %-14s %-12s %10s %10s\n", "Benchmark", "strategy", "verdict", "time[s]", "peak nodes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-14s %-12s %10.3f %10d\n",
			r.Name, r.Strategy, r.Verdict, r.Runtime.Seconds(), r.PeakNodes)
	}
}

// RRow reports, for one simulation budget r, how many planted errors the
// simulation stage caught — the r-ablation behind the paper's "r = 10
// suffices in practice".
type RRow struct {
	R        int
	Detected int
	Total    int
}

// RunRAblation plants errors of every class into the given instances' G'
// circuits and measures detection within r simulations, for each r.
func RunRAblation(instances []Instance, rs []int, seed int64) []RRow {
	type job struct {
		inst Instance
	}
	var jobs []job
	k := 0
	for _, inst := range instances {
		buggy, inj, err := errinject.InjectAny(inst.Gp, seed+int64(k))
		k++
		if err != nil {
			continue
		}
		j := inst
		j.Gp = buggy
		j.WantEquivalent = false
		j.Injection = inj.String()
		jobs = append(jobs, job{inst: j})
	}
	rows := make([]RRow, 0, len(rs))
	for _, r := range rs {
		row := RRow{R: r, Total: len(jobs)}
		for i, j := range jobs {
			rep := core.Check(j.inst.G, j.inst.Gp, core.Options{
				R: r, Seed: seed + int64(100+i), SkipEC: true, OutputPerm: j.inst.OutputPerm,
			})
			if rep.Verdict == core.NotEquivalent {
				row.Detected++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintRAblation renders the detection-rate-versus-r table.
func PrintRAblation(w io.Writer, rows []RRow) {
	fmt.Fprintln(w, "Simulation-count ablation (errors detected within r random simulations)")
	fmt.Fprintf(w, "%6s %10s %8s\n", "r", "detected", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %10d %8d\n", r.R, r.Detected, r.Total)
	}
}
