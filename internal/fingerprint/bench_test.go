package fingerprint

import (
	"testing"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/decompose"
	"qcec/internal/mapping"
	"qcec/internal/qasm"
)

// routedPair returns a deterministic compiler-output pair as the daemon
// sees it, built the way the qcecd client benchmark builds its questions: a
// random 5-bit reversible netlist of 3300-3900 CX-level gates and the same
// netlist routed onto a ring with its initial layout restored, both written
// as OpenQASM and parsed back.
func routedPair(tb testing.TB) (g, gp *circuit.Circuit) {
	tb.Helper()
	reparse := func(c *circuit.Circuit) *circuit.Circuit {
		src, err := qasm.WriteString(c)
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := qasm.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		return prog.Circuit
	}
	for seed := int64(1); ; seed++ {
		src, err := bench.RandomReversible(5, seed)
		if err != nil {
			tb.Fatal(err)
		}
		c := decompose.Circuit(src, decompose.LevelCX)
		if len(c.Gates) < 3300 || len(c.Gates) > 3900 {
			continue
		}
		m, err := mapping.Map(c, mapping.Options{Arch: mapping.Ring(c.N), RestoreLayout: true, DecomposeSwaps: true})
		if err != nil {
			tb.Fatal(err)
		}
		return reparse(c), reparse(m.Circuit)
	}
}

var pairSink Digest

// BenchmarkPair fingerprints a routed pair, the hashing work of one check
// request.  Run with -benchmem.
func BenchmarkPair(b *testing.B) {
	g, gp := routedPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairSink = Pair(g, gp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(g.Gates)+len(gp.Gates))), "ns/gate")
}
