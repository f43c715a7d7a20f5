package core

import (
	"path/filepath"
	"testing"

	"qcec/internal/circuit"
	"qcec/internal/qasm"
)

// loadBenchCircuit is loadSeedCircuit for benchmarks (no *testing.T).
func loadBenchCircuit(b *testing.B, name string) *circuit.Circuit {
	b.Helper()
	prog, err := qasm.ParseFile(filepath.Join("..", "..", "circuits", name))
	if err != nil {
		b.Fatalf("parse %s: %v", name, err)
	}
	return prog.Circuit
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
