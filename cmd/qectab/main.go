// Command qectab regenerates the paper's experimental artifacts:
//
//	qectab -table 1a       Table Ia  (non-equivalent benchmarks)
//	qectab -table 1b       Table Ib  (equivalent benchmarks)
//	qectab -table flow     verdict distribution of the proposed flow (Fig. 3)
//	qectab -table theory   Sec. IV-A detection-probability experiment
//	qectab -table ablate   EC-strategy / simulation-count / stimuli ablations
//	qectab -table census   every race prover alone and the pipeline, strict
//	                       and up to phase: what each decides, decides
//	                       alone and decides fastest
//	qectab -table gatecost compilation-flow verification: gate-cost vs
//	                       naive/proportional/lookahead on deeply-compiled pairs
//	qectab -fig 1          the Fig. 1/2 worked example (system matrices)
//	qectab -table all      everything above
//
// The -scale flag selects instance sizes: "small" finishes in seconds,
// "medium" in around a minute, "paper" approaches the paper's benchmark
// sizes and should be combined with a generous -ec-timeout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/harness"
)

func main() {
	var (
		table     = flag.String("table", "", "experiment to run: 1a|1b|flow|theory|ablate|census|gatecost|all")
		fig       = flag.Int("fig", 0, "figure to reproduce (1 = the worked example)")
		scaleName = flag.String("scale", "small", "benchmark scale: small|medium|paper")
		r         = flag.Int("r", 10, "simulation runs per instance (paper: 10)")
		ecTimeout = flag.Duration("ec-timeout", 10*time.Second, "complete-check timeout per instance (paper: 1h)")
		nodeLimit = flag.Int("ec-node-limit", harness.DefaultECNodeLimit, "complete-check DD node budget (0 = none)")
		strategy  = flag.String("ec-strategy", "construction", "complete-check strategy (the paper's baseline constructs and compares both DDs)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		theoryN   = flag.Int("theory-n", 8, "register size for the theory experiment")
		csvDir    = flag.String("csv", "", "also write results as CSV files into this directory")
	)
	flag.Parse()

	if *table == "" && *fig == 0 {
		fmt.Fprintln(os.Stderr, "usage: qectab -table 1a|1b|flow|theory|ablate|census|gatecost|all  or  qectab -fig 1")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var scale harness.Scale
	switch *scaleName {
	case "small":
		scale = harness.Small
	case "medium":
		scale = harness.Medium
	case "paper":
		scale = harness.Paper
	default:
		fmt.Fprintf(os.Stderr, "qectab: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	strat, err := ec.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qectab:", err)
		os.Exit(2)
	}

	opts := core.Options{
		R:           *r,
		ECTimeout:   *ecTimeout,
		ECNodeLimit: *nodeLimit,
		Strategy:    strat,
		Seed:        *seed,
	}

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "qectab:", err)
		os.Exit(1)
	}

	writeCSV := func(name string, write func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			die(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := write(f); err != nil {
			die(err)
		}
	}
	run1a := func() {
		suite, err := harness.BuildNonEquivalentSuite(scale, *seed)
		if err != nil {
			die(err)
		}
		rows := harness.RunSuite(suite, opts)
		harness.PrintTable1a(os.Stdout, rows, opts)
		writeCSV("table_1a.csv", func(f *os.File) error { return harness.WriteRowsCSV(f, rows) })
		fmt.Println()
	}
	run1b := func() {
		suite, err := harness.BuildEquivalentSuite(scale)
		if err != nil {
			die(err)
		}
		rows := harness.RunSuite(suite, opts)
		harness.PrintTable1b(os.Stdout, rows, opts)
		writeCSV("table_1b.csv", func(f *os.File) error { return harness.WriteRowsCSV(f, rows) })
		fmt.Println()
	}
	runFlow := func() {
		eq, err := harness.BuildEquivalentSuite(scale)
		if err != nil {
			die(err)
		}
		neq, err := harness.BuildNonEquivalentSuite(scale, *seed)
		if err != nil {
			die(err)
		}
		s := harness.RunFlow(append(eq, neq...), opts)
		harness.PrintFlowSummary(os.Stdout, s)
		fmt.Println()
	}
	runTheory := func() {
		rows, err := harness.TheoryExperiment(*theoryN, *seed)
		if err != nil {
			die(err)
		}
		harness.PrintTheory(os.Stdout, *theoryN, rows)
		writeCSV("theory.csv", func(f *os.File) error { return harness.WriteTheoryCSV(f, rows) })
		fmt.Println()
	}
	runCensus := func() {
		suite, err := harness.BuildCensusSuite(scale, *seed)
		if err != nil {
			die(err)
		}
		harness.PrintCensus(os.Stdout, harness.RunCensus(suite, opts), opts)
		fmt.Println()
	}
	runGateCost := func() {
		rows, err := harness.RunGateCostComparison(*seed, opts)
		if err != nil {
			die(err)
		}
		harness.PrintGateCostComparison(os.Stdout, rows)
		writeCSV("gatecost.csv", func(f *os.File) error { return harness.WriteGateCostCSV(f, rows) })
		fmt.Println()
	}
	runAblate := func() {
		eq, err := harness.BuildEquivalentSuite(scale)
		if err != nil {
			die(err)
		}
		limit := len(eq)
		if limit > 4 {
			limit = 4
		}
		strategyRows := harness.RunStrategyAblation(eq[:limit], opts)
		harness.PrintStrategyAblation(os.Stdout, strategyRows)
		writeCSV("strategy_ablation.csv", func(f *os.File) error { return harness.WriteStrategyCSV(f, strategyRows) })
		fmt.Println()
		harness.PrintRAblation(os.Stdout, harness.RunRAblation(eq, []int{1, 2, 4, 8, 10, 16}, *seed))
		fmt.Println()
		harness.PrintStimuliAblation(os.Stdout, harness.RunStimuliAblation(10, *r, *seed))
		fmt.Println()
		routerRows, err := harness.RunRouterAblation(*seed)
		if err != nil {
			die(err)
		}
		harness.PrintRouterAblation(os.Stdout, routerRows)
		fmt.Println()
	}

	if *fig == 1 {
		if err := runFig1(os.Stdout); err != nil {
			die(err)
		}
	}
	switch *table {
	case "":
	case "1a":
		run1a()
	case "1b":
		run1b()
	case "flow":
		runFlow()
	case "theory":
		runTheory()
	case "ablate":
		runAblate()
	case "census":
		runCensus()
	case "gatecost":
		runGateCost()
	case "all":
		run1a()
		run1b()
		runFlow()
		runTheory()
		runAblate()
		runCensus()
		runGateCost()
		if err := runFig1(os.Stdout); err != nil {
			die(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "qectab: unknown table %q\n", *table)
		os.Exit(2)
	}
}
