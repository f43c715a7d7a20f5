// Command qcec checks the equivalence of two quantum circuits using the
// paper's simulation-first flow: a handful of random basis-state simulations
// followed, if necessary, by a complete DD-based equivalence check.
//
// Usage:
//
//	qcec [flags] <circuit1> <circuit2>
//
// The flags translate into one core.Options for core.Check.  With
// -portfolio the selected provers (-provers=sim,dd,...,rewrite,zx,stab)
// race concurrently instead of the flow, bounded by -timeout, and the first
// definitive verdict wins; the losers are cancelled and a per-prover report
// is printed.  The flow-only flags -sim-only and -fidelity-threshold cannot
// be combined with -portfolio (exit 2).
//
// Exit codes: 0 equivalent, 1 not equivalent, 2 usage, input or option
// error, 3 inconclusive.
//
// Circuit files may be OpenQASM 2.0 (.qasm) or RevLib (.real).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"qcec/internal/circuitfile"
	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/resource"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's body on the command-line arguments, returning the exit code
// instead of calling os.Exit so the profiling defers always flush.
func run(args []string) int {
	fs := flag.NewFlagSet("qcec", flag.ContinueOnError)
	var (
		r         = fs.Int("r", core.DefaultR, "number of random basis-state simulations before complete checking")
		seed      = fs.Int64("seed", 0, "stimulus selection seed")
		timeout   = fs.Duration("timeout", time.Minute, "complete-check timeout; with -portfolio, the whole race's (0 = none)")
		strategy  = fs.String("strategy", "proportional", "complete-check strategy: construction|sequential|proportional|lookahead|gate-cost (gate-cost = compilation-flow schedule from a per-gate cost profile; a Clifford pair is checked on the stabilizer tableau whatever the strategy)")
		phase     = fs.Bool("up-to-phase", false, "treat circuits differing only by a global phase as equivalent")
		simOnly   = fs.Bool("sim-only", false, "skip the complete check (simulation stage only)")
		parallel  = fs.Int("parallel", 1, "simulation workers (each with a private DD package)")
		fidThresh = fs.Float64("fidelity-threshold", 0, "approximate mode: accept per-stimulus fidelities above this (0 = exact)")
		jsonOut   = fs.Bool("json", false, "print the full report as JSON")
		verbose   = fs.Bool("v", false, "print per-stage details")
		portf     = fs.Bool("portfolio", false, "race the selected provers concurrently; first definitive verdict wins")
		provers   = fs.String("provers", strings.Join(core.ProverNames, ","), "comma-separated prover subset for -portfolio")
		nodeLimit = fs.Int("node-limit", 0, "DD node budget of the complete check, per complete prover with -portfolio (0 = none)")
		stats     = fs.Bool("stats", false, "print DD-package statistics (gate-registry/compute-table hit rates, unique-table activity, GC reclaims); with -json they are embedded in the report")
		memLimit  = fs.Int("mem-limit", 0, "hard heap budget in MiB; the check is cancelled cleanly when exceeded (0 = none)")
		memSoft   = fs.Int("mem-soft-limit", 0, "soft heap budget in MiB: force DD collections and cache flushes above it (0 = 80% of -mem-limit)")
		retry     = fs.Bool("retry-crashed", false, "with -portfolio: re-run a panicked prover once with a degraded configuration")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: qcec [flags] <circuit1> <circuit2>")
		fs.PrintDefaults()
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qcec:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "qcec:", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qcec:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qcec:", err)
			}
		}()
	}
	strat, err := ec.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcec:", err)
		return 2
	}
	memHardBytes := uint64(*memLimit) << 20
	memSoftBytes := uint64(*memSoft) << 20
	if memSoftBytes == 0 && memHardBytes > 0 {
		memSoftBytes = memHardBytes / 10 * 8
	}
	g1, err := circuitfile.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcec:", err)
		return 2
	}
	g2, err := circuitfile.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcec:", err)
		return 2
	}
	if *verbose {
		fmt.Printf("G : %s — %d qubits, %d gates\n", fs.Arg(0), g1.N, g1.NumGates())
		fmt.Printf("G': %s — %d qubits, %d gates\n", fs.Arg(1), g2.N, g2.NumGates())
	}

	opts := core.Options{
		R:                 *r,
		Seed:              *seed,
		SkipEC:            *simOnly,
		Strategy:          strat,
		ECTimeout:         *timeout,
		ECNodeLimit:       *nodeLimit,
		UpToGlobalPhase:   *phase,
		Parallel:          *parallel,
		FidelityThreshold: *fidThresh,
		MemSoftLimit:      memSoftBytes,
		MemHardLimit:      memHardBytes,
		RetryCrashed:      *retry,
	}
	if *portf {
		opts.Provers = strings.Split(*provers, ",")
		if *timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			opts.Context = ctx
		}
	}
	rep := core.Check(g1, g2, opts)
	if rep.Err != nil {
		fmt.Fprintln(os.Stderr, "qcec:", rep.Err)
		return 2
	}

	switch {
	case *portf && *jsonOut:
		printPortfolioJSON(g1.N, rep, *stats)
	case *portf:
		printPortfolioHuman(g1.N, rep, *stats)
	case *jsonOut:
		printJSON(g1.N, rep, *stats)
	default:
		printHuman(g1.N, rep, *verbose, *stats)
	}
	switch rep.Verdict {
	case core.NotEquivalent:
		return 1
	case core.ProbablyEquivalent:
		return 3
	}
	return 0
}

// printDDStats renders one DD-package statistics block, indented under the
// given label.
func printDDStats(label string, s dd.Stats) {
	fmt.Printf("%s DD stats:\n", label)
	fmt.Printf("  gate registry: %d hits / %d misses (%.1f%% hit rate, %d gate DDs, %d GC flushes)\n",
		s.GateHits, s.GateMisses, 100*s.GateHitRate(), s.GateCacheSize, s.GateFlushes)
	fmt.Printf("  compute table: %d hits / %d misses (%.1f%% hit rate)\n",
		s.CacheHits, s.CacheMisses, 100*s.ComputeHitRate())
	if s.ApplyCalls > 0 {
		fmt.Printf("  apply kernel:  %d direct applies (%d diagonal, %d permutation, %d generic), %.1f%% table hit rate\n",
			s.ApplyCalls, s.ApplyDiag, s.ApplyPerm, s.ApplyGeneric, 100*s.ApplyHitRate())
	}
	fmt.Printf("  unique table:  %d lookups, %.1f%% answered by interned nodes (%d v-nodes, %d m-nodes live)\n",
		s.UniqueLookups, 100*s.UniqueHitRate(), s.VectorNodes, s.MatrixNodes)
	fmt.Printf("  weights:       %d interned, %d lookups\n", s.WeightsStored, s.WeightLookups)
	gcLine := fmt.Sprintf("  gc:            %d runs, %d nodes reclaimed", s.GCRuns, s.GCReclaimed)
	if s.PressureGCs > 0 {
		gcLine += fmt.Sprintf(", %d forced by memory pressure", s.PressureGCs)
	}
	fmt.Println(gcLine)
}

// printMemStats renders the memory watchdog's counters.
func printMemStats(m *resource.Stats) {
	if m == nil {
		return
	}
	fmt.Printf("memory watchdog: %d samples, %d soft trips, %d hard trips, peak heap %.1f MiB, peak DD nodes %d\n",
		m.Samples, m.SoftTrips, m.HardTrips, float64(m.PeakHeapBytes)/(1<<20), m.PeakDDNodes)
}

// memReport is the JSON shape of resource.Stats.
type memReport struct {
	Samples       uint64 `json:"samples"`
	SoftTrips     uint64 `json:"soft_trips"`
	HardTrips     uint64 `json:"hard_trips"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	PeakDDNodes   int64  `json:"peak_dd_nodes"`
}

func newMemReport(m *resource.Stats) *memReport {
	if m == nil {
		return nil
	}
	return &memReport{
		Samples: m.Samples, SoftTrips: m.SoftTrips, HardTrips: m.HardTrips,
		PeakHeapBytes: m.PeakHeapBytes, PeakDDNodes: m.PeakDDNodes,
	}
}

// printPortfolioHuman renders a race: the winning verdict and a per-prover
// outcome table.
func printPortfolioHuman(n int, rep core.Report, stats bool) {
	fmt.Printf("verdict: %s", rep.Verdict)
	if rep.DecidedBy != "" {
		fmt.Printf(" (won by %s)", rep.DecidedBy)
	}
	fmt.Println()
	if rep.Counterexample != nil {
		fmt.Printf("counterexample: input |%0*b>\n", n, rep.Counterexample.Input)
	}
	fmt.Printf("%-8s %-30s %-12s %10s %10s  %s\n", "prover", "verdict", "stopped", "time", "peak", "detail")
	for _, r := range rep.Provers {
		peak := ""
		if r.PeakNodes > 0 {
			peak = fmt.Sprintf("%d", r.PeakNodes)
		}
		name := r.Name
		if r.Retried {
			name += "*" // degraded retry after a crash; see detail column
		}
		fmt.Printf("%-8s %-30s %-12s %9.4fs %10s  %s\n",
			name, r.Verdict, r.Stop, r.Runtime.Seconds(), peak, r.Detail)
	}
	fmt.Printf("total: %.4fs\n", rep.TotalTime.Seconds())
	if stats {
		for _, r := range rep.Provers {
			if r.DD != nil {
				printDDStats(r.Name, *r.DD)
			}
		}
		printMemStats(rep.Mem)
	}
}

// printPortfolioJSON is printPortfolioHuman's machine-readable form.
func printPortfolioJSON(n int, rep core.Report, stats bool) {
	type report struct {
		Prover    string    `json:"prover"`
		Verdict   string    `json:"verdict"`
		Stopped   string    `json:"stopped"`
		Seconds   float64   `json:"seconds"`
		PeakNodes int       `json:"peak_nodes,omitempty"`
		Detail    string    `json:"detail,omitempty"`
		Error     string    `json:"error,omitempty"`
		Retried   bool      `json:"retried,omitempty"`
		DD        *ddReport `json:"dd,omitempty"`
	}
	out := struct {
		Verdict        string     `json:"verdict"`
		Winner         string     `json:"winner,omitempty"`
		Qubits         int        `json:"qubits"`
		Counterexample *uint64    `json:"counterexample,omitempty"`
		TotalSeconds   float64    `json:"total_seconds"`
		Reports        []report   `json:"provers"`
		Mem            *memReport `json:"mem,omitempty"`
	}{
		Verdict:      rep.Verdict.String(),
		Winner:       rep.DecidedBy,
		Qubits:       n,
		TotalSeconds: rep.TotalTime.Seconds(),
	}
	if rep.Counterexample != nil {
		out.Counterexample = &rep.Counterexample.Input
	}
	for _, r := range rep.Provers {
		pr := report{
			Prover: r.Name, Verdict: r.Verdict.String(), Stopped: r.Stop.String(),
			Seconds: r.Runtime.Seconds(), PeakNodes: r.PeakNodes, Detail: r.Detail,
			Retried: r.Retried,
		}
		if r.Err != nil {
			pr.Error = r.Err.Error()
		}
		if stats && r.DD != nil {
			pr.DD = newDDReport(*r.DD)
		}
		out.Reports = append(out.Reports, pr)
	}
	if stats {
		out.Mem = newMemReport(rep.Mem)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "qcec:", err)
	}
}

// ddReport is the JSON shape of dd.Stats for -json -stats output.
type ddReport struct {
	GateHits       uint64  `json:"gate_hits"`
	GateMisses     uint64  `json:"gate_misses"`
	GateHitRate    float64 `json:"gate_hit_rate"`
	GateCacheSize  int     `json:"gate_cache_size"`
	GateFlushes    uint64  `json:"gate_flushes"`
	ComputeHits    uint64  `json:"compute_hits"`
	ComputeMisses  uint64  `json:"compute_misses"`
	ComputeHitRate float64 `json:"compute_hit_rate"`
	ApplyCalls     uint64  `json:"apply_calls"`
	ApplyDiag      uint64  `json:"apply_diag"`
	ApplyPerm      uint64  `json:"apply_perm"`
	ApplyGeneric   uint64  `json:"apply_generic"`
	ApplyHits      uint64  `json:"apply_hits"`
	ApplyMisses    uint64  `json:"apply_misses"`
	ApplyHitRate   float64 `json:"apply_hit_rate"`
	UniqueLookups  uint64  `json:"unique_lookups"`
	UniqueHits     uint64  `json:"unique_hits"`
	VectorNodes    int     `json:"vector_nodes"`
	MatrixNodes    int     `json:"matrix_nodes"`
	WeightsStored  int     `json:"weights_stored"`
	GCRuns         int     `json:"gc_runs"`
	GCReclaimed    uint64  `json:"gc_reclaimed"`
	PressureGCs    uint64  `json:"pressure_gcs,omitempty"`
	FaultEvents    uint64  `json:"fault_events,omitempty"`
}

func newDDReport(s dd.Stats) *ddReport {
	return &ddReport{
		GateHits: s.GateHits, GateMisses: s.GateMisses,
		GateHitRate: s.GateHitRate(), GateCacheSize: s.GateCacheSize, GateFlushes: s.GateFlushes,
		ComputeHits: s.CacheHits, ComputeMisses: s.CacheMisses, ComputeHitRate: s.ComputeHitRate(),
		ApplyCalls: s.ApplyCalls, ApplyDiag: s.ApplyDiag, ApplyPerm: s.ApplyPerm,
		ApplyGeneric: s.ApplyGeneric, ApplyHits: s.ApplyHits, ApplyMisses: s.ApplyMisses,
		ApplyHitRate:  s.ApplyHitRate(),
		UniqueLookups: s.UniqueLookups, UniqueHits: s.UniqueHits,
		VectorNodes: s.VectorNodes, MatrixNodes: s.MatrixNodes, WeightsStored: s.WeightsStored,
		GCRuns: s.GCRuns, GCReclaimed: s.GCReclaimed,
		PressureGCs: s.PressureGCs, FaultEvents: s.FaultEvents,
	}
}

func printHuman(n int, rep core.Report, verbose, stats bool) {
	fmt.Printf("verdict: %s", rep.Verdict)
	if rep.DecidedBy != "" {
		fmt.Printf(" (decided by %s)", rep.DecidedBy)
	}
	fmt.Println()
	if rep.Cancelled && rep.CancelCause != nil {
		fmt.Printf("stopped early: %v\n", rep.CancelCause)
	}
	fmt.Printf("simulations: %d (%.3fs, min fidelity %.6f)\n", rep.NumSims, rep.SimTime.Seconds(), rep.MinFidelity)
	if rep.EC != nil {
		outcome := rep.EC.Verdict.String()
		if rep.EC.Cause == ec.CauseYielded {
			outcome = rep.EC.Reason
		}
		fmt.Printf("complete check: %s via %s (%.3fs)\n", outcome, rep.EC.Strategy, rep.EC.Runtime.Seconds())
	}
	if rep.Counterexample != nil {
		ce := rep.Counterexample
		fmt.Printf("counterexample: input |%0*b> (fidelity %.6f)\n", n, ce.Input, ce.Fidelity)
		if verbose && ce.StateG != "" {
			fmt.Printf("  G  output: %s\n", ce.StateG)
			fmt.Printf("  G' output: %s\n", ce.StateGp)
		}
	}
	if verbose {
		fmt.Printf("total: %.3fs\n", rep.TotalTime.Seconds())
	}
	if stats {
		printDDStats("simulation", rep.DD)
		if rep.EC != nil {
			printDDStats("complete check", rep.EC.DD)
		}
		printMemStats(rep.Mem)
	}
}

// printJSON emits a machine-readable report (for CI integration).
func printJSON(n int, rep core.Report, stats bool) {
	type counterexample struct {
		Input    uint64  `json:"input"`
		Fidelity float64 `json:"fidelity"`
		StateG   string  `json:"state_g,omitempty"`
		StateGp  string  `json:"state_gp,omitempty"`
	}
	out := struct {
		Verdict        string          `json:"verdict"`
		DecidedBy      string          `json:"decided_by,omitempty"`
		Qubits         int             `json:"qubits"`
		NumSims        int             `json:"num_sims"`
		SimSeconds     float64         `json:"sim_seconds"`
		MinFidelity    float64         `json:"min_fidelity"`
		AvgFidelity    float64         `json:"avg_fidelity"`
		ECVerdict      string          `json:"ec_verdict,omitempty"`
		ECSeconds      float64         `json:"ec_seconds,omitempty"`
		Counterexample *counterexample `json:"counterexample,omitempty"`
		Cancelled      bool            `json:"cancelled,omitempty"`
		CancelCause    string          `json:"cancel_cause,omitempty"`
		TotalSeconds   float64         `json:"total_seconds"`
		SimDD          *ddReport       `json:"sim_dd,omitempty"`
		ECDD           *ddReport       `json:"ec_dd,omitempty"`
		Mem            *memReport      `json:"mem,omitempty"`
	}{
		Verdict:      rep.Verdict.String(),
		DecidedBy:    rep.DecidedBy,
		Qubits:       n,
		NumSims:      rep.NumSims,
		SimSeconds:   rep.SimTime.Seconds(),
		MinFidelity:  rep.MinFidelity,
		AvgFidelity:  rep.AvgFidelity,
		TotalSeconds: rep.TotalTime.Seconds(),
	}
	if rep.EC != nil {
		if rep.EC.Cause != ec.CauseYielded {
			// A probe that yielded to simulation reached no verdict.
			out.ECVerdict = rep.EC.Verdict.String()
		}
		out.ECSeconds = rep.EC.Runtime.Seconds()
	}
	if ce := rep.Counterexample; ce != nil {
		out.Counterexample = &counterexample{
			Input: ce.Input, Fidelity: ce.Fidelity, StateG: ce.StateG, StateGp: ce.StateGp,
		}
	}
	out.Cancelled = rep.Cancelled
	if rep.CancelCause != nil {
		out.CancelCause = rep.CancelCause.Error()
	}
	if stats {
		out.SimDD = newDDReport(rep.DD)
		if rep.EC != nil {
			out.ECDD = newDDReport(rep.EC.DD)
		}
		out.Mem = newMemReport(rep.Mem)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "qcec:", err)
	}
}
