// Benchmarks regenerating the paper's experimental artifacts, one family per
// table/figure (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record):
//
//	BenchmarkTable1a*   — Table Ia  (non-equivalent pairs: t_ec vs #sims/t_sim)
//	BenchmarkTable1b*   — Table Ib  (equivalent pairs: t_ec vs t_sim at r=10)
//	BenchmarkFlowFig3   — the proposed flow end to end (Fig. 3)
//	BenchmarkTheory     — Sec. IV-A detection probability vs control count
//	BenchmarkFig1       — the Fig. 1/2 worked example
//	BenchmarkAblate*    — strategy / simulation-count ablations
//
// Run with: go test -bench=. -benchmem
package qcec_test

import (
	"sync"
	"testing"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/harness"
	"qcec/internal/mapping"
)

var (
	suiteOnce sync.Once
	eqSuite   []harness.Instance
	neqSuite  []harness.Instance
	suiteErr  error
)

func suites(b *testing.B) ([]harness.Instance, []harness.Instance) {
	b.Helper()
	suiteOnce.Do(func() {
		eqSuite, suiteErr = harness.BuildEquivalentSuite(harness.Small)
		if suiteErr != nil {
			return
		}
		neqSuite, suiteErr = harness.BuildNonEquivalentSuite(harness.Small, 1)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return eqSuite, neqSuite
}

// BenchmarkTable1aSimulation measures the simulation stage on every
// non-equivalent instance — the paper's #sims / t_sim columns.  The reported
// sims/op metric is the number of random stimuli needed to expose the error
// (paper: 1 almost everywhere).
func BenchmarkTable1aSimulation(b *testing.B) {
	_, neq := suites(b)
	for _, inst := range neq {
		inst := inst
		b.Run(inst.Name, func(b *testing.B) {
			totalSims := 0
			detected := 0
			for i := 0; i < b.N; i++ {
				rep := core.Check(inst.G, inst.Gp, core.Options{
					R: 64, Seed: int64(i), SkipEC: true, OutputPerm: inst.OutputPerm,
				})
				totalSims += rep.NumSims
				if rep.Verdict == core.NotEquivalent {
					detected++
				}
			}
			b.ReportMetric(float64(totalSims)/float64(b.N), "sims/op")
			b.ReportMetric(float64(detected)/float64(b.N), "detect-rate")
		})
	}
}

// BenchmarkTable1aECBaseline measures the complete routine alone on the
// non-equivalent instances — the paper's t_ec column (frequently a timeout).
func BenchmarkTable1aECBaseline(b *testing.B) {
	_, neq := suites(b)
	for _, inst := range neq {
		inst := inst
		b.Run(inst.Name, func(b *testing.B) {
			timeouts := 0
			for i := 0; i < b.N; i++ {
				r := ec.Check(inst.G, inst.Gp, ec.Options{
					Strategy: ec.Construction, Timeout: 2 * time.Second,
					NodeLimit: 500_000, OutputPerm: inst.OutputPerm,
				})
				if r.Verdict == ec.TimedOut {
					timeouts++
				}
			}
			b.ReportMetric(float64(timeouts)/float64(b.N), "timeout-rate")
		})
	}
}

// BenchmarkTable1bSimOverhead measures the r = 10 simulation overhead on
// equivalent instances — the paper's t_sim column of Table Ib, shown to be
// negligible next to t_ec.
func BenchmarkTable1bSimOverhead(b *testing.B) {
	eq, _ := suites(b)
	for _, inst := range eq {
		inst := inst
		b.Run(inst.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := core.Check(inst.G, inst.Gp, core.Options{
					R: 10, Seed: int64(i), SkipEC: true, OutputPerm: inst.OutputPerm,
				})
				if rep.Verdict == core.NotEquivalent {
					b.Fatalf("%s: false non-equivalence", inst.Name)
				}
			}
		})
	}
}

// BenchmarkTable1bECBaseline measures the complete routine on equivalent
// instances — the paper's t_ec column of Table Ib.
func BenchmarkTable1bECBaseline(b *testing.B) {
	eq, _ := suites(b)
	for _, inst := range eq {
		inst := inst
		b.Run(inst.Name, func(b *testing.B) {
			timeouts := 0
			for i := 0; i < b.N; i++ {
				r := ec.Check(inst.G, inst.Gp, ec.Options{
					Strategy: ec.Construction, Timeout: 2 * time.Second,
					NodeLimit: 500_000, OutputPerm: inst.OutputPerm,
				})
				if r.Verdict == ec.TimedOut {
					timeouts++
				}
			}
			b.ReportMetric(float64(timeouts)/float64(b.N), "timeout-rate")
		})
	}
}

// BenchmarkFlowFig3 runs the complete proposed flow over the mixed suite —
// the Fig. 3 pipeline end to end.
func BenchmarkFlowFig3(b *testing.B) {
	eq, neq := suites(b)
	all := append(append([]harness.Instance{}, eq...), neq...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := harness.RunFlow(all, core.Options{
			R: 10, ECTimeout: 2 * time.Second, ECNodeLimit: 500_000,
			Strategy: ec.Proportional, Seed: int64(i),
		})
		if s.WrongVerdicts != 0 {
			b.Fatalf("flow produced %d wrong verdicts", s.WrongVerdicts)
		}
	}
}

// BenchmarkTheory regenerates the Sec. IV-A experiment: exhaustive
// detection-probability measurement for difference gates with c controls.
func BenchmarkTheory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.TheoryExperiment(8, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Measured != r.Predicted {
				b.Fatalf("c=%d: measured %g != predicted %g", r.Controls, r.Measured, r.Predicted)
			}
		}
	}
}

// BenchmarkFig1 runs the worked example: map the Fig. 1b circuit, plant the
// Example 6 bug, detect it by simulation.
func BenchmarkFig1(b *testing.B) {
	g := bench.PaperExample()
	res, err := mapping.Map(g, mapping.Options{Arch: mapping.Linear(3), RestoreLayout: true})
	if err != nil {
		b.Fatal(err)
	}
	buggy := res.Circuit.Clone()
	for i := len(buggy.Gates) - 1; i >= 0; i-- {
		if buggy.Gates[i].Kind == circuit.SWAP {
			sw := buggy.Gates[i]
			buggy.Gates[i].Target2 = 3 - sw.Target - sw.Target2
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.Check(g, buggy, core.Options{Seed: int64(i), SkipEC: true})
		if rep.Verdict != core.NotEquivalent {
			b.Fatal("Example 6 bug not detected")
		}
	}
}

// BenchmarkAblateStrategy compares the complete-EC gate-alternation
// strategies on an equivalent compiled pair (DESIGN.md ablation 1).
func BenchmarkAblateStrategy(b *testing.B) {
	eq, _ := suites(b)
	inst := eq[0]
	for _, s := range []ec.Strategy{ec.Construction, ec.Sequential, ec.Proportional, ec.Lookahead} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := ec.Check(inst.G, inst.Gp, ec.Options{
					Strategy: s, Timeout: 5 * time.Second, OutputPerm: inst.OutputPerm,
				})
				if r.Verdict == ec.NotEquivalent {
					b.Fatal("equivalent pair misjudged")
				}
			}
		})
	}
}

// BenchmarkAblateSimCount measures detection rate as a function of r
// (DESIGN.md ablation 2) — the basis for the paper's choice of r = 10.
func BenchmarkAblateSimCount(b *testing.B) {
	eq, _ := suites(b)
	for _, r := range []int{1, 2, 4, 10} {
		r := r
		b.Run(rName(r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := harness.RunRAblation(eq[:5], []int{r}, int64(i))
				b.ReportMetric(float64(rows[0].Detected)/float64(rows[0].Total), "detect-rate")
			}
		})
	}
}

func rName(r int) string {
	switch r {
	case 1:
		return "r=01"
	case 2:
		return "r=02"
	case 4:
		return "r=04"
	default:
		return "r=10"
	}
}
