package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/ec"
)

// The experiments take their configuration as a core.Options: R (paper:
// 10), Seed, Strategy (the complete routine; the paper's baseline tool
// constructs and compares both DDs, i.e. ec.Construction), ECTimeout (per
// instance; paper: 1 h), ECNodeLimit and the rest.  Each experiment copies
// it, for the complete routine through core.Options.ECOptions, and
// overrides only the fields it varies (SkipEC, OutputPerm, Strategy,
// CostProfile).  A zero ECTimeout means the harness default of 10 s.

// DefaultECNodeLimit is the node budget the CLI front ends (cmd/qectab)
// apply by default.  It is deliberately NOT applied by withDefaults: an
// ECNodeLimit of 0 means "no limit", and silently forcing a budget here
// made that impossible to request (the historical bug).
const DefaultECNodeLimit = 2_000_000

// withDefaults fills unset fields.  ECNodeLimit is normalized, not
// defaulted: zero and negative values both mean "no node budget",
// consistently with ec.Options.NodeLimit and the qcec/qectab flags.
func withDefaults(o core.Options) core.Options {
	if o.R <= 0 {
		o.R = core.DefaultR
	}
	if o.ECTimeout <= 0 {
		o.ECTimeout = 10 * time.Second
	}
	if o.ECNodeLimit < 0 {
		o.ECNodeLimit = 0
	}
	return o
}

// Row is one line of a Table I reproduction.
type Row struct {
	Name   string
	N      int
	SizeG  int
	SizeGp int

	// Complete-routine-only results (paper column t_ec).
	ECVerdict  ec.Verdict
	TEC        time.Duration
	ECTimedOut bool

	// Simulation-stage results (paper columns #sims, t_sim).
	NumSims     int
	TSim        time.Duration
	SimDetected bool

	// Ground truth and the flow's verdict, for the correctness check.
	WantEquivalent bool
	FlowVerdict    core.Verdict
	Injection      string

	// DD telemetry of the two measurements (gate-cache and compute-table
	// hit rates, unique-table activity, GC reclaims).
	ECDD  dd.Stats
	SimDD dd.Stats
}

// RunInstance measures one benchmark pair: first the complete routine alone
// (the state of the art), then the simulation stage of the proposed flow.
func RunInstance(inst Instance, opts core.Options) Row {
	opts = withDefaults(opts)
	row := Row{
		Name:           inst.Name,
		N:              inst.N,
		SizeG:          inst.G.NumGates(),
		SizeGp:         inst.Gp.NumGates(),
		WantEquivalent: inst.WantEquivalent,
		Injection:      inst.Injection,
	}

	opts.OutputPerm = inst.OutputPerm
	ecRes := ec.Check(inst.G, inst.Gp, opts.ECOptions())
	row.ECVerdict = ecRes.Verdict
	row.TEC = ecRes.Runtime
	row.ECTimedOut = ecRes.Verdict == ec.TimedOut
	row.ECDD = ecRes.DD

	opts.SkipEC = true
	rep := core.Check(inst.G, inst.Gp, opts)
	row.NumSims = rep.NumSims
	row.TSim = rep.SimTime
	row.SimDetected = rep.Verdict == core.NotEquivalent
	row.FlowVerdict = rep.Verdict
	row.SimDD = rep.DD
	return row
}

// ddFooter aggregates the DD telemetry of a set of rows into one summary
// line: hit rates are count-weighted across the suite, not averaged per row.
func ddFooter(rows []Row) string {
	var ecDD, simDD dd.Stats
	for _, r := range rows {
		ecDD.Add(r.ECDD)
		simDD.Add(r.SimDD)
	}
	var total dd.Stats
	total.Add(ecDD)
	total.Add(simDD)
	line := fmt.Sprintf(
		"DD telemetry: gate-cache hit rate %.1f%% (ec %.1f%%, sim %.1f%%); compute-table %.1f%%; unique-table %.1f%%; GC reclaimed %d nodes in %d runs",
		100*total.GateHitRate(), 100*ecDD.GateHitRate(), 100*simDD.GateHitRate(),
		100*total.ComputeHitRate(), 100*total.UniqueHitRate(),
		total.GCReclaimed, total.GCRuns)
	if total.ApplyCalls > 0 {
		line += fmt.Sprintf("; apply kernel: %d direct applies, %.1f%% table hits",
			total.ApplyCalls, 100*total.ApplyHitRate())
	}
	if total.PressureGCs > 0 {
		line += fmt.Sprintf("; %d collections forced by memory pressure", total.PressureGCs)
	}
	return line
}

// RunSuite measures every instance and sorts rows by simulation time
// descending, like the paper's tables.  Instance circuits are released as
// soon as they are measured so that paper-scale suites (millions of gates
// per instance) do not accumulate.
func RunSuite(instances []Instance, opts core.Options) []Row {
	rows := make([]Row, 0, len(instances))
	for i := range instances {
		rows = append(rows, RunInstance(instances[i], opts))
		instances[i].G, instances[i].Gp = nil, nil
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TSim > rows[j].TSim })
	return rows
}

func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// PrintTable1a renders the non-equivalent table in the paper's layout,
// followed by a summary line (detection rate, one-sim rate, geometric-mean
// speedup of the simulation stage over the complete baseline).
func PrintTable1a(w io.Writer, rows []Row, opts core.Options) {
	opts = withDefaults(opts)
	fmt.Fprintf(w, "Table Ia — non-equivalent benchmarks (EC timeout %s)\n", opts.ECTimeout)
	fmt.Fprintf(w, "%-28s %4s %8s %9s %10s %6s %9s  %s\n",
		"Benchmark", "n", "|G|", "|G'|", "t_ec[s]", "#sims", "t_sim[s]", "injected error")
	detected, oneSim := 0, 0
	logSum, logCount := 0.0, 0
	for _, r := range rows {
		tec := fmtDuration(r.TEC)
		if r.ECTimedOut {
			tec = ">" + fmtDuration(opts.ECTimeout)
		}
		sims := fmt.Sprintf("%d", r.NumSims)
		if r.SimDetected {
			detected++
			if r.NumSims == 1 {
				oneSim++
			}
			if r.TSim > 0 && r.TEC > 0 {
				logSum += math.Log(r.TEC.Seconds() / r.TSim.Seconds())
				logCount++
			}
		} else {
			sims = "miss"
		}
		fmt.Fprintf(w, "%-28s %4d %8d %9d %10s %6s %9s  %s\n",
			r.Name, r.N, r.SizeG, r.SizeGp, tec, sims, fmtDuration(r.TSim), r.Injection)
	}
	fmt.Fprintf(w, "detected %d/%d (within one simulation: %d)", detected, len(rows), oneSim)
	if logCount > 0 {
		fmt.Fprintf(w, "; geo-mean speedup of simulation over t_ec: %.1fx (t_ec capped by timeout)",
			math.Exp(logSum/float64(logCount)))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, ddFooter(rows))
}

// PrintTable1b renders the equivalent table in the paper's layout.
func PrintTable1b(w io.Writer, rows []Row, opts core.Options) {
	opts = withDefaults(opts)
	fmt.Fprintf(w, "Table Ib — equivalent benchmarks (r = %d, EC timeout %s)\n", opts.R, opts.ECTimeout)
	fmt.Fprintf(w, "%-28s %4s %8s %9s %10s %9s\n",
		"Benchmark", "n", "|G|", "|G'|", "t_ec[s]", "t_sim[s]")
	for _, r := range rows {
		tec := fmtDuration(r.TEC)
		if r.ECTimedOut {
			tec = ">" + fmtDuration(opts.ECTimeout)
		}
		fmt.Fprintf(w, "%-28s %4d %8d %9d %10s %9s\n",
			r.Name, r.N, r.SizeG, r.SizeGp, tec, fmtDuration(r.TSim))
	}
	fmt.Fprintln(w, ddFooter(rows))
}

// FlowSummary tallies the verdicts of the full proposed flow (Fig. 3) over a
// suite — the F3 experiment.
type FlowSummary struct {
	Total              int
	NotEquivalent      int
	Equivalent         int
	ProbablyEquivalent int
	SimsPerDetection   []int
	WrongVerdicts      int
	TotalTime          time.Duration
}

// RunFlow executes the complete proposed flow on every instance.
func RunFlow(instances []Instance, opts core.Options) FlowSummary {
	opts = withDefaults(opts)
	var s FlowSummary
	for _, inst := range instances {
		opts.OutputPerm = inst.OutputPerm
		rep := core.Check(inst.G, inst.Gp, opts)
		s.Total++
		s.TotalTime += rep.TotalTime
		switch rep.Verdict {
		case core.NotEquivalent:
			s.NotEquivalent++
			s.SimsPerDetection = append(s.SimsPerDetection, rep.NumSims)
			if inst.WantEquivalent {
				s.WrongVerdicts++
			}
		case core.Equivalent, core.EquivalentUpToGlobalPhase:
			s.Equivalent++
			if !inst.WantEquivalent {
				s.WrongVerdicts++
			}
		case core.ProbablyEquivalent:
			s.ProbablyEquivalent++
		}
	}
	return s
}

// PrintFlowSummary renders the verdict distribution.
func PrintFlowSummary(w io.Writer, s FlowSummary) {
	fmt.Fprintf(w, "Proposed flow (Fig. 3) over %d instances: %d not-equivalent, %d equivalent, %d probably-equivalent (EC timeout), %d wrong verdicts, total %.3fs\n",
		s.Total, s.NotEquivalent, s.Equivalent, s.ProbablyEquivalent, s.WrongVerdicts, s.TotalTime.Seconds())
	if len(s.SimsPerDetection) > 0 {
		one := 0
		for _, k := range s.SimsPerDetection {
			if k == 1 {
				one++
			}
		}
		fmt.Fprintf(w, "Counterexamples found within one simulation: %d/%d\n", one, len(s.SimsPerDetection))
	}
}
