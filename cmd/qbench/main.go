// Command qbench measures the simulation hot path on the seed benchmark
// circuits: every circuit pair runs through the flow's simulation stage (the
// direct apply kernel), and the resulting gate-application rates, hit rates
// and verdicts are written to a JSON artifact (BENCH_sim.json) so the rates
// are recorded, not asserted.
//
// Usage:
//
//	qbench [-out BENCH_sim.json] [-circuits circuits] [-r 32] [-reps 7]
//
// Two variants are measured per circuit: an equivalent pair (the circuit
// against its clone — the paper's hot loop, r stimuli of agreeing
// simulations) and an error-injected pair (internal/errinject), which the
// simulation stage refutes almost immediately.
//
// Each equivalent pair is additionally swept over stimulus worker counts
// (1, 2, 4, NumCPU) on the kernel path — the same check driven through one
// shared prepared program set — and the resulting scaling curve
// (gate-apps/s, speedup, parallel efficiency per worker count) is recorded
// in the artifact.  -min-scaling-eff turns the 4-worker efficiency into a
// gate on machines with at least 4 CPUs.
//
// A separate Clifford sweep sizes the stabilizer fast path against the
// complete DD checker: random Clifford pairs at 8–24 qubits are checked by
// both ec.StrategyStabilizer and the DD proportional scheme, per-check times
// and verdict parity land in the artifact's clifford section, and
// -min-stab-speedup turns the geomean tableau speedup at >=20 qubits into a
// gate.
//
// A compilation-flow sweep races the four alternating application schemes
// (sequential, proportional, lookahead, gate-cost) over deeply-compiled
// pairs (bench.CompiledSuite: decompose+mapping with native cost profiles);
// peak DD nodes, multiplication counts, and verdict parity land in the
// artifact's gatecost section, and -min-gatecost-ratio turns the geomean
// proportional-over-gate-cost peak-node ratio on equivalent pairs into a
// gate.  Peak node counts are deterministic, so the sweep runs once.
//
// With -compare, a previously committed artifact is read before the run and
// the per-pair and geomean gate-application-rate deltas against it are
// printed (the benchcmp workflow).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/errinject"
	"qcec/internal/harness"
	"qcec/internal/qasm"
	"qcec/internal/revlib"
)

func loadCircuit(path string) (*circuit.Circuit, error) {
	switch {
	case strings.HasSuffix(path, ".real"):
		f, err := revlib.ParseFile(path)
		if err != nil {
			return nil, err
		}
		return f.Circuit, nil
	case strings.HasSuffix(path, ".qasm"):
		prog, err := qasm.ParseFile(path)
		if err != nil {
			return nil, err
		}
		return prog.Circuit, nil
	default:
		return nil, fmt.Errorf("unsupported circuit format %q", path)
	}
}

// measurement is one pair's timed simulation stage.
type measurement struct {
	Seconds        float64 `json:"seconds"`
	NumSims        int     `json:"num_sims"`
	GateApps       int     `json:"gate_apps"`
	GateAppsPerSec float64 `json:"gate_apps_per_sec"`
	ApplyHitRate   float64 `json:"apply_hit_rate,omitempty"`
	Verdict        string  `json:"verdict"`
	Counterexample *uint64 `json:"counterexample,omitempty"`
}

// result is one benchmark variant: a named pair and its measurement.
type result struct {
	Name       string      `json:"name"`
	Qubits     int         `json:"qubits"`
	Gates      int         `json:"gates"`
	Equivalent bool        `json:"equivalent_pair"`
	Injection  string      `json:"injection,omitempty"`
	Kernel     measurement `json:"kernel"`
}

// scalingPoint is one multi-worker measurement of the simulation stage: the
// same check driven by Workers parallel stimulus workers over one shared
// prepared program set, timed by stage wall clock.  Speedup is relative to
// the curve's 1-worker point; Efficiency divides the speedup by the worker
// count the hardware can actually run concurrently, min(Workers, NumCPU),
// so oversubscribed points on small machines are not judged as scaling
// failures.
type scalingPoint struct {
	Workers        int     `json:"workers"`
	Seconds        float64 `json:"seconds"`
	GateApps       int     `json:"gate_apps"`
	GateAppsPerSec float64 `json:"gate_apps_per_sec"`
	Verdict        string  `json:"verdict"`
	Speedup        float64 `json:"speedup"`
	Efficiency     float64 `json:"efficiency"`
}

// scalingCurve is one pair's worker-count sweep.
type scalingCurve struct {
	Name          string         `json:"name"`
	Points        []scalingPoint `json:"points"`
	VerdictsMatch bool           `json:"verdicts_match"`
}

// cliffordMeasurement is one strategy's timing on a Clifford pair: total
// batch time over Checks runs of ec.Check, and the (deterministic) verdict.
type cliffordMeasurement struct {
	Seconds         float64 `json:"seconds"`
	Checks          int     `json:"checks"`
	SecondsPerCheck float64 `json:"seconds_per_check"`
	Verdict         string  `json:"verdict"`
}

// cliffordPoint is one pair of the stabilizer-vs-DD sweep.  Speedup is the
// DD per-check time over the tableau per-check time; VerdictsMatch compares
// at Equivalent() granularity (the sweep runs up-to-phase, where the DD path
// may still report strict equivalence when weights match exactly).
type cliffordPoint struct {
	Name          string              `json:"name"`
	Qubits        int                 `json:"qubits"`
	Gates         int                 `json:"gates"`
	Equivalent    bool                `json:"equivalent_pair"`
	Injection     string              `json:"injection,omitempty"`
	Stab          cliffordMeasurement `json:"stab"`
	DD            cliffordMeasurement `json:"dd"`
	Speedup       float64             `json:"speedup"`
	VerdictsMatch bool                `json:"verdicts_match"`
}

// gateCostScheme is one application scheme's deterministic measurement on a
// compiled pair.
type gateCostScheme struct {
	Verdict   string  `json:"verdict"`
	PeakNodes int     `json:"peak_nodes"`
	Muls      int     `json:"muls"`
	Seconds   float64 `json:"seconds"`
}

// gateCostPoint is one deeply-compiled pair of the application-scheme sweep.
// NodeRatio is proportional peak nodes over gate-cost peak nodes.
type gateCostPoint struct {
	Name          string                    `json:"name"`
	Qubits        int                       `json:"qubits"`
	GatesG        int                       `json:"gates_g"`
	GatesGp       int                       `json:"gates_gp"`
	Equivalent    bool                      `json:"equivalent_pair"`
	Injection     string                    `json:"injection,omitempty"`
	Schemes       map[string]gateCostScheme `json:"schemes"`
	NodeRatio     float64                   `json:"node_ratio"`
	VerdictsMatch bool                      `json:"verdicts_match"`
}

type summary struct {
	AllVerdictsMatch bool `json:"all_verdicts_match"`
	// Scaling aggregates over the equivalent pairs' 4-worker points.
	GeomeanScalingSpeedup4 float64 `json:"geomean_scaling_speedup_4w,omitempty"`
	MinScalingEfficiency4  float64 `json:"min_scaling_efficiency_4w,omitempty"`
	// Clifford-sweep aggregates: the headline geomean is over equivalent
	// pairs at >= 20 qubits, where polynomial vs exponential structure shows.
	GeomeanStabSpeedup20Q float64 `json:"geomean_stab_speedup_20q,omitempty"`
	MinStabSpeedup20Q     float64 `json:"min_stab_speedup_20q,omitempty"`
	// Gate-cost aggregates over the compiled sweep's equivalent pairs.
	GeomeanGateCostRatio float64 `json:"geomean_gatecost_ratio,omitempty"`
	MinGateCostRatio     float64 `json:"min_gatecost_ratio,omitempty"`
}

type artifact struct {
	Generated string          `json:"generated"`
	R         int             `json:"r"`
	Seed      int64           `json:"seed"`
	Reps      int             `json:"reps"`
	NumCPU    int             `json:"num_cpu"`
	Results   []result        `json:"results"`
	Scaling   []scalingCurve  `json:"scaling,omitempty"`
	Clifford  []cliffordPoint `json:"clifford,omitempty"`
	GateCost  []gateCostPoint `json:"gatecost,omitempty"`
	Summary   summary         `json:"summary"`
}

// Batching bounds: each timed repetition accumulates checks until the
// summed simulation time reaches minBatchTime (or maxBatchIters runs,
// whichever comes first).  The seed circuits simulate in well under a
// millisecond, far below scheduler-noise resolution; only aggregated
// batches produce rates that are stable from run to run.
const (
	minBatchTime  = 50 * time.Millisecond
	maxBatchIters = 1000
)

// measure runs the simulation stage on one pair: reps timed repetitions
// after one untimed warm-up, keeping the fastest repetition (noise only
// ever slows a run down).  Gate applications count both circuits' gates
// once per completed simulation; the reported rate is the batch aggregate.
func measure(g1, g2 *circuit.Circuit, r int, seed int64, reps int) measurement {
	var best measurement
	for rep := -1; rep < reps; rep++ {
		var m measurement
		for iter := 0; iter < maxBatchIters && m.Seconds < minBatchTime.Seconds(); iter++ {
			repRes := core.Check(g1, g2, core.Options{R: r, Seed: seed, SkipEC: true})
			m.Seconds += repRes.SimTime.Seconds()
			m.NumSims = repRes.NumSims
			m.GateApps += repRes.NumSims * (g1.NumGates() + g2.NumGates())
			m.ApplyHitRate = repRes.DD.ApplyHitRate()
			var ce *uint64
			if repRes.Counterexample != nil {
				v := repRes.Counterexample.Input
				ce = &v
			}
			if iter == 0 {
				m.Verdict = repRes.Verdict.String()
				m.Counterexample = ce
			} else if m.Verdict != repRes.Verdict.String() || !ceEqual(m.Counterexample, ce) {
				// Verdicts are deterministic for a fixed seed; fail
				// loudly if a run ever disagrees.
				fmt.Fprintf(os.Stderr, "qbench: verdict changed across runs (%s vs %s)\n",
					m.Verdict, repRes.Verdict)
				os.Exit(1)
			}
			if rep < 0 {
				break // warm-up: one check
			}
		}
		if rep < 0 {
			continue
		}
		if m.Seconds > 0 {
			m.GateAppsPerSec = float64(m.GateApps) / m.Seconds
		}
		if rep == 0 || m.GateAppsPerSec > best.GateAppsPerSec {
			if rep > 0 && (best.Verdict != m.Verdict || !ceEqual(best.Counterexample, m.Counterexample)) {
				fmt.Fprintf(os.Stderr, "qbench: verdict changed across repetitions (%s vs %s)\n",
					best.Verdict, m.Verdict)
				os.Exit(1)
			}
			best = m
		}
	}
	return best
}

// scalingWorkerCounts returns the deduplicated, sorted worker counts the
// scaling sweep measures: 1, 2, 4, and NumCPU.
func scalingWorkerCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(counts)
	out := counts[:0]
	for _, c := range counts {
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out
}

// measureScaling sweeps the simulation stage over worker counts, batching
// and keeping the fastest repetition exactly like measure.  All points run the same stimuli from the same seed, so every
// verdict must agree; the curve records parity explicitly.
func measureScaling(g1, g2 *circuit.Circuit, r int, seed int64, reps int) []scalingPoint {
	workers := scalingWorkerCounts()
	points := make([]scalingPoint, len(workers))
	for wi, w := range workers {
		var best scalingPoint
		for rep := -1; rep < reps; rep++ {
			var batch scalingPoint
			batch.Workers = w
			for iter := 0; iter < maxBatchIters; iter++ {
				repRes := core.Check(g1, g2, core.Options{
					R:        r,
					Seed:     seed,
					SkipEC:   true,
					Parallel: w,
				})
				batch.Seconds += repRes.SimTime.Seconds()
				batch.GateApps += repRes.NumSims * (g1.NumGates() + g2.NumGates())
				if iter == 0 {
					batch.Verdict = repRes.Verdict.String()
				} else if batch.Verdict != repRes.Verdict.String() {
					fmt.Fprintf(os.Stderr, "qbench: scaling verdict changed across runs (%s vs %s)\n",
						batch.Verdict, repRes.Verdict)
					os.Exit(1)
				}
				if batch.Seconds >= minBatchTime.Seconds() {
					break
				}
			}
			if rep < 0 {
				continue // warm-up
			}
			if batch.Seconds > 0 {
				batch.GateAppsPerSec = float64(batch.GateApps) / batch.Seconds
			}
			if rep == 0 || batch.GateAppsPerSec > best.GateAppsPerSec {
				best = batch
			}
		}
		points[wi] = best
	}
	base := points[0].GateAppsPerSec
	for i := range points {
		if base > 0 {
			points[i].Speedup = points[i].GateAppsPerSec / base
		}
		hw := points[i].Workers
		if n := runtime.NumCPU(); hw > n {
			hw = n
		}
		if hw > 0 {
			points[i].Efficiency = points[i].Speedup / float64(hw)
		}
	}
	return points
}

// cliffordSizes are the register widths of the stabilizer-vs-DD sweep; the
// -min-stab-speedup gate reads only the >= 20-qubit equivalent pairs.
var cliffordSizes = []int{8, 12, 16, 20, 24}

// ddParityMaxQubits bounds the DD side of the sweep's error-injected pairs:
// a refuted Clifford miter drifts away from the identity, where DD sizes can
// grow exponentially, so verdict parity against DD is demonstrated on the
// small instances and the large ones time the tableau alone.
const ddParityMaxQubits = 12

// measureCliffordStrategy times ec.Check under one strategy on a fixed pair,
// batching checks until the summed ec runtime reaches minBatchTime (the
// tableau path finishes in microseconds) and keeping the fastest of reps
// timed repetitions after one warm-up.
func measureCliffordStrategy(g1, g2 *circuit.Circuit, strat ec.Strategy, reps int) (cliffordMeasurement, bool) {
	var best cliffordMeasurement
	equivalent := false
	for rep := -1; rep < reps; rep++ {
		var batch cliffordMeasurement
		for iter := 0; iter < maxBatchIters; iter++ {
			res := ec.Check(g1, g2, ec.Options{Strategy: strat, UpToGlobalPhase: true})
			if res.Verdict == ec.TimedOut {
				fmt.Fprintf(os.Stderr, "qbench: clifford sweep inconclusive under %v: %s\n", strat, res.Reason)
				os.Exit(1)
			}
			batch.Seconds += res.Runtime.Seconds()
			batch.Checks++
			if iter == 0 {
				batch.Verdict = res.Verdict.String()
				equivalent = res.Equivalent()
			} else if batch.Verdict != res.Verdict.String() {
				fmt.Fprintf(os.Stderr, "qbench: clifford verdict changed across runs (%s vs %s)\n",
					batch.Verdict, res.Verdict)
				os.Exit(1)
			}
			if batch.Seconds >= minBatchTime.Seconds() {
				break
			}
		}
		if rep < 0 {
			continue // warm-up
		}
		batch.SecondsPerCheck = batch.Seconds / float64(batch.Checks)
		if rep == 0 || batch.SecondsPerCheck < best.SecondsPerCheck {
			best = batch
		}
	}
	return best, equivalent
}

// measureClifford runs the stabilizer-vs-DD sweep: for each width, an
// equivalent pair (random Clifford circuit against its clone) under both
// strategies, plus a flipped-CNOT pair with DD parity up to
// ddParityMaxQubits.
func measureClifford(seed int64, reps int) []cliffordPoint {
	var points []cliffordPoint
	for _, n := range cliffordSizes {
		g := bench.RandomClifford(n, 12*n, seed)
		type variant struct {
			name      string
			gp        *circuit.Circuit
			injection string
		}
		variants := []variant{{name: fmt.Sprintf("clifford%d", n), gp: g.Clone()}}
		if n <= ddParityMaxQubits {
			if bad, inj, err := errinject.Inject(g, errinject.FlippedCNOT, seed); err == nil {
				variants = append(variants, variant{
					name: fmt.Sprintf("clifford%d+err", n), gp: bad, injection: inj.String(),
				})
			}
		}
		for _, v := range variants {
			stab, stabEq := measureCliffordStrategy(g, v.gp, ec.StrategyStabilizer, reps)
			dd, ddEq := measureCliffordStrategy(g, v.gp, ec.Proportional, reps)
			pt := cliffordPoint{
				Name:          v.name,
				Qubits:        n,
				Gates:         g.NumGates(),
				Equivalent:    v.injection == "",
				Injection:     v.injection,
				Stab:          stab,
				DD:            dd,
				VerdictsMatch: stabEq == ddEq,
			}
			if stab.SecondsPerCheck > 0 {
				pt.Speedup = dd.SecondsPerCheck / stab.SecondsPerCheck
			}
			points = append(points, pt)
			fmt.Printf("%-22s stab %10.1fus  dd %10.1fus  speedup %7.1fx  parity %v\n",
				v.name, 1e6*stab.SecondsPerCheck, 1e6*dd.SecondsPerCheck, pt.Speedup, pt.VerdictsMatch)
		}
	}
	return points
}

func ceEqual(a, b *uint64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// compareBaseline prints per-pair and geomean kernel gate-application-rate
// deltas of the fresh artifact against a committed baseline.  Pairs present
// on only one side are reported and skipped from the geomean.
func compareBaseline(art artifact, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base artifact
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	baseRates := make(map[string]float64, len(base.Results))
	for _, r := range base.Results {
		baseRates[r.Name] = r.Kernel.GateAppsPerSec
	}
	fmt.Printf("comparison against %s (generated %s):\n", path, base.Generated)
	logSum, logCount := 0.0, 0
	for _, r := range art.Results {
		old, ok := baseRates[r.Name]
		if !ok || old <= 0 {
			fmt.Printf("  %-22s %8.0f apps/s  (no baseline)\n", r.Name, r.Kernel.GateAppsPerSec)
			continue
		}
		ratio := r.Kernel.GateAppsPerSec / old
		fmt.Printf("  %-22s %8.0f apps/s  vs %8.0f  %+6.1f%%\n",
			r.Name, r.Kernel.GateAppsPerSec, old, 100*(ratio-1))
		if ratio > 0 {
			logSum += math.Log(ratio)
			logCount++
		}
	}
	if logCount == 0 {
		fmt.Println("  no comparable pairs")
		return nil
	}
	geo := math.Exp(logSum / float64(logCount))
	fmt.Printf("  geomean gate-apps/s delta: %+.1f%% (%d pairs)\n", 100*(geo-1), logCount)
	return nil
}

func main() {
	os.Exit(run())
}

// run is main's body, returning the exit code instead of calling os.Exit so
// the profiling defers always flush.
func run() int {
	var (
		out        = flag.String("out", "BENCH_sim.json", "output artifact path")
		circDir    = flag.String("circuits", "circuits", "directory with seed benchmark circuits (.qasm/.real)")
		r          = flag.Int("r", core.DefaultR, "random simulations per pair")
		seed       = flag.Int64("seed", 1, "stimulus and error-injection seed")
		reps       = flag.Int("reps", 7, "timed repetitions per configuration (fastest kept)")
		minScalEff = flag.Float64("min-scaling-eff", 0, "fail unless every equiv pair's 4-worker parallel efficiency reaches this; only enforced when NumCPU >= 4 (0 = record only)")
		scalReps   = flag.Int("scaling-reps", 3, "timed repetitions per scaling point (fastest kept); 0 disables the scaling sweep")
		minStab    = flag.Float64("min-stab-speedup", 0, "fail unless the >=20-qubit equiv-pair geomean stabilizer-over-DD speedup reaches this (0 = record only)")
		minGCRatio = flag.Float64("min-gatecost-ratio", 0, "fail unless the equiv-pair geomean proportional-over-gate-cost peak-node ratio on deeply-compiled pairs reaches this (0 = record only)")
		gcSweep    = flag.Bool("gatecost-sweep", true, "run the compilation-flow application-scheme sweep (deterministic, single run)")
		cliffReps  = flag.Int("clifford-reps", 3, "timed repetitions per clifford point (fastest kept); 0 disables the clifford sweep")
		comparePth = flag.String("compare", "", "read a committed artifact and print per-pair and geomean gate-apps/s deltas against it")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Every Check builds a fresh DD package (unique tables, compute tables,
	// weight table), so the measurement loop allocates heavily and the default
	// GC target fires collections mid-batch, at different moments from run to
	// run.  A higher target keeps collections out of most batches.
	debug.SetGCPercent(400)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "qbench:", err)
			f.Close()
			return 1
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
				fmt.Fprintln(os.Stderr, "qbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qbench:", err)
			}
		}()
	}

	entries, err := os.ReadDir(*circDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		return 1
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".qasm") || strings.HasSuffix(e.Name(), ".real") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Fprintf(os.Stderr, "qbench: no circuits in %s\n", *circDir)
		return 1
	}

	art := artifact{
		Generated: time.Now().UTC().Format(time.RFC3339),
		R:         *r,
		Seed:      *seed,
		Reps:      *reps,
		NumCPU:    runtime.NumCPU(),
	}
	scalLogSum, scalCount := 0.0, 0
	minScalEff4 := math.Inf(1)
	allMatch := true
	for _, name := range files {
		g, err := loadCircuit(filepath.Join(*circDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "qbench:", err)
			return 1
		}
		type variant struct {
			name      string
			gp        *circuit.Circuit
			equiv     bool
			injection string
		}
		variants := []variant{{name: name, gp: g.Clone(), equiv: true}}
		if bad, inj, err := errinject.InjectAny(g, *seed); err == nil {
			variants = append(variants, variant{
				name: name + "+err", gp: bad, injection: inj.String(),
			})
		}
		for _, v := range variants {
			res := result{
				Name:       v.name,
				Qubits:     g.N,
				Gates:      g.NumGates(),
				Equivalent: v.equiv,
				Injection:  v.injection,
				Kernel:     measure(g, v.gp, *r, *seed, *reps),
			}
			art.Results = append(art.Results, res)
			fmt.Printf("%-22s %8.0f apps/s  apply hit %5.1f%%  %s\n",
				v.name, res.Kernel.GateAppsPerSec, 100*res.Kernel.ApplyHitRate, res.Kernel.Verdict)

			// Scaling sweep: equivalent pairs only (error-injected pairs stop
			// at the first failing stimulus, so worker counts change nothing).
			if !v.equiv || *scalReps <= 0 {
				continue
			}
			points := measureScaling(g, v.gp, *r, *seed, *scalReps)
			curve := scalingCurve{Name: v.name, Points: points, VerdictsMatch: true}
			for _, pt := range points {
				// Sequential (1 worker) == parallel == the measurement above.
				if pt.Verdict != res.Kernel.Verdict {
					curve.VerdictsMatch = false
					allMatch = false
				}
				if pt.Workers == 4 {
					if pt.Speedup > 0 {
						scalLogSum += math.Log(pt.Speedup)
						scalCount++
					}
					minScalEff4 = math.Min(minScalEff4, pt.Efficiency)
				}
			}
			art.Scaling = append(art.Scaling, curve)
			var cells []string
			for _, pt := range points {
				cells = append(cells, fmt.Sprintf("%dw %.0f (%.2fx)", pt.Workers, pt.GateAppsPerSec, pt.Speedup))
			}
			fmt.Printf("%-22s scaling: %s\n", v.name, strings.Join(cells, "  "))
		}
	}
	if scalCount > 0 {
		art.Summary.GeomeanScalingSpeedup4 = math.Exp(scalLogSum / float64(scalCount))
		art.Summary.MinScalingEfficiency4 = minScalEff4
	}
	if *cliffReps > 0 {
		art.Clifford = measureClifford(*seed, *cliffReps)
		stabLogSum, stabCount := 0.0, 0
		minStab20 := math.Inf(1)
		for _, pt := range art.Clifford {
			if !pt.VerdictsMatch {
				allMatch = false
			}
			if pt.Equivalent && pt.Qubits >= 20 && pt.Speedup > 0 {
				stabLogSum += math.Log(pt.Speedup)
				stabCount++
				minStab20 = math.Min(minStab20, pt.Speedup)
			}
		}
		if stabCount > 0 {
			art.Summary.GeomeanStabSpeedup20Q = math.Exp(stabLogSum / float64(stabCount))
			art.Summary.MinStabSpeedup20Q = minStab20
		}
	}
	if *gcSweep {
		rows, err := harness.RunGateCostComparison(*seed, core.Options{ECTimeout: time.Minute})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qbench:", err)
			return 1
		}
		minGC := math.Inf(1)
		gcLogSum, gcCount := 0.0, 0
		for _, row := range rows {
			pt := gateCostPoint{
				Name:          row.Name,
				Qubits:        row.N,
				GatesG:        row.SizeG,
				GatesGp:       row.SizeGp,
				Equivalent:    row.Equivalent,
				Injection:     row.Injection,
				Schemes:       make(map[string]gateCostScheme, len(row.Cells)),
				NodeRatio:     row.NodeRatio,
				VerdictsMatch: row.VerdictParity,
			}
			for k, cell := range row.Cells {
				pt.Schemes[harness.GateCostSchemes[k].String()] = gateCostScheme{
					Verdict:   cell.Verdict.String(),
					PeakNodes: cell.PeakNodes,
					Muls:      cell.Muls,
					Seconds:   cell.Runtime.Seconds(),
				}
			}
			if !row.VerdictParity {
				allMatch = false
			}
			if row.Equivalent && row.NodeRatio > 0 {
				gcLogSum += math.Log(row.NodeRatio)
				gcCount++
				minGC = math.Min(minGC, row.NodeRatio)
			}
			art.GateCost = append(art.GateCost, pt)
			fmt.Printf("%-22s gate-cost peak %7d  proportional peak %7d  ratio %5.1fx  parity %v\n",
				row.Name, pt.Schemes["gate-cost"].PeakNodes, pt.Schemes["proportional"].PeakNodes,
				row.NodeRatio, row.VerdictParity)
		}
		if gcCount > 0 {
			art.Summary.GeomeanGateCostRatio = math.Exp(gcLogSum / float64(gcCount))
			art.Summary.MinGateCostRatio = minGC
		}
	}
	art.Summary.AllVerdictsMatch = allMatch

	// Compare against the committed baseline before overwriting it: -out and
	// -compare may name the same file.
	if *comparePth != "" {
		if err := compareBaseline(art, *comparePth); err != nil {
			fmt.Fprintln(os.Stderr, "qbench:", err)
			return 1
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		return 1
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		return 1
	}
	fmt.Printf("verdict parity: %v -> %s\n", allMatch, *out)
	if !allMatch {
		fmt.Fprintln(os.Stderr, "qbench: verdicts diverged across configurations")
		return 1
	}
	if *minStab > 0 && len(art.Clifford) > 0 {
		if art.Summary.GeomeanStabSpeedup20Q < *minStab {
			fmt.Fprintf(os.Stderr, "qbench: >=20-qubit geomean stabilizer speedup %.2fx below required %.2fx\n",
				art.Summary.GeomeanStabSpeedup20Q, *minStab)
			return 1
		}
	}
	if *minGCRatio > 0 && len(art.GateCost) > 0 {
		if art.Summary.GeomeanGateCostRatio < *minGCRatio {
			fmt.Fprintf(os.Stderr, "qbench: geomean gate-cost peak-node ratio %.2fx below required %.2fx\n",
				art.Summary.GeomeanGateCostRatio, *minGCRatio)
			return 1
		}
	}
	if *minScalEff > 0 && len(art.Scaling) > 0 {
		// The efficiency floor only means something when the hardware can run
		// 4 workers concurrently; on smaller machines the curve is recorded
		// for the artifact but cannot demonstrate scaling.
		if runtime.NumCPU() < 4 {
			fmt.Printf("qbench: scaling-efficiency floor %.2f not enforced on %d CPU(s); curve recorded only\n",
				*minScalEff, runtime.NumCPU())
		} else if art.Summary.MinScalingEfficiency4 < *minScalEff {
			fmt.Fprintf(os.Stderr, "qbench: 4-worker parallel efficiency %.2f below required %.2f\n",
				art.Summary.MinScalingEfficiency4, *minScalEff)
			return 1
		}
	}
	return 0
}
