package ec_test

import (
	"testing"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/decompose"
	"qcec/internal/ec"
	"qcec/internal/mapping"
)

// routedPairSeed draws the netlist of BenchmarkCheckRoutedPair: a 3,505-gate
// CX-level circuit, inside the 3300-3900 band the qcecd client benchmark
// draws its 5-bit questions from, and the same netlist the qasm and
// fingerprint benchmarks parse and hash.  Its routed copy is equivalent;
// some seeds' are not, because restoring the layout can displace qubits
// that were already home.
const routedPairSeed = 1

// routedPair builds a compiler-output pair the way the qcecd client
// benchmark builds its questions: a random 5-bit reversible netlist lowered
// to CX (g), and the same circuit routed onto a ring with its initial
// layout restored and SWAPs lowered to CX (gp).
func routedPair(tb testing.TB) (g, gp *circuit.Circuit) {
	tb.Helper()
	src, err := bench.RandomReversible(5, routedPairSeed)
	if err != nil {
		tb.Fatal(err)
	}
	g = decompose.Circuit(src, decompose.LevelCX)
	m, err := mapping.Map(g, mapping.Options{Arch: mapping.Ring(g.N), RestoreLayout: true, DecomposeSwaps: true})
	if err != nil {
		tb.Fatal(err)
	}
	return g, m.Circuit
}

// BenchmarkCheckRoutedPair runs the proportional complete check of one
// routed pair per iteration on a pooled package, as a qcecd worker does
// when simulation finds no counterexample.  Besides time per applied gate
// it reports the peak unique-table population and the nodes created per
// check, which show whether the package's working set stays cache-sized.
func BenchmarkCheckRoutedPair(b *testing.B) {
	g, gp := routedPair(b)
	pool := dd.NewPool(1)
	opts := ec.Options{Strategy: ec.Proportional, Pool: pool}
	if r := ec.Check(g, gp, opts); r.Verdict != ec.Equivalent {
		b.Fatalf("routed pair: %v (%s), want equivalent", r.Verdict, r.Reason)
	}
	var gates, peak int
	var created uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ec.Check(g, gp, opts)
		gates += r.GatesApplied
		peak = max(peak, r.PeakNodes)
		created += r.DD.NodesCreated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(gates), "ns/gate")
	b.ReportMetric(float64(peak), "peak-nodes")
	b.ReportMetric(float64(created)/float64(b.N), "nodes-created/op")
}
