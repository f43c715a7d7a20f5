package core

import (
	"path/filepath"
	"testing"

	"qcec/internal/circuit"
	"qcec/internal/dd"
)

// loadBenchCircuit loads a seed benchmark circuit by file name.
func loadBenchCircuit(b *testing.B, name string) *circuit.Circuit {
	return loadSeedCircuit(b, filepath.Join("..", "..", "circuits", name))
}

// BenchmarkSimKernel measures the simulation stage (the direct apply
// kernel) on one equivalent pair.
func BenchmarkSimKernel(b *testing.B) {
	g := loadBenchCircuit(b, "grover4_cx.qasm")
	gp := g.Clone()
	opts := Options{R: 10, Seed: 1, SkipEC: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Check(g, gp, opts)
		if rep.Verdict != ProbablyEquivalent && rep.Verdict != Equivalent {
			b.Fatalf("unexpected verdict %s", rep.Verdict)
		}
	}
}

// BenchmarkFlowRoutedPair runs the whole flow, pooled as a qcecd worker runs
// it, on the routed pair of ec's BenchmarkCheckRoutedPair.  Besides ns/op it
// reports the simulations per check and the share of checks decided by
// simulation, which show whether the complete check's probe yielded to
// simulating all 32 columns.
func BenchmarkFlowRoutedPair(b *testing.B) {
	g, gp := reversiblePair(b, 5, 1, true)
	opts := Options{Pool: dd.NewPool(2)}
	if rep := Check(g, gp, opts); rep.Verdict != Equivalent {
		b.Fatalf("routed pair: %v, want equivalent", rep.Verdict)
	}
	sims, bySim := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Check(g, gp, opts)
		sims += rep.NumSims
		if rep.DecidedBy == "sim" {
			bySim++
		}
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
	b.ReportMetric(float64(bySim)/float64(b.N), "sim-decided")
}
