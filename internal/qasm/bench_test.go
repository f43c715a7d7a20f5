package qasm

import (
	"testing"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/decompose"
	"qcec/internal/mapping"
)

// routedPair returns the OpenQASM sources of routedCircuits and their
// total gate count.
func routedPair(tb testing.TB) (g, gp string, gates int) {
	c, m := routedCircuits(tb)
	return writeOrFail(tb, c), writeOrFail(tb, m), len(c.Gates) + len(m.Gates)
}

// routedCircuits returns a deterministic compiler-output pair, built the
// way the qcecd client benchmark builds its questions: a random 5-bit
// reversible netlist lowered to CX (g) and the same circuit routed onto a
// ring with its initial layout restored (gp).  Netlists outside 3300-3900
// CX-level gates are drawn again, as the benchmark does, so each side has
// as many gates as a side of one of its questions.
func routedCircuits(tb testing.TB) (g, gp *circuit.Circuit) {
	tb.Helper()
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
		return c, m.Circuit
	}
}

func writeOrFail(tb testing.TB, c *circuit.Circuit) string {
	tb.Helper()
	s, err := WriteString(c)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkParse parses both sides of a routed pair per iteration, the
// parsing work of one check request.  Run with -benchmem.
func BenchmarkParse(b *testing.B) {
	g, gp, gates := routedPair(b)
	b.SetBytes(int64(len(g) + len(gp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range [2]string{g, gp} {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gates), "ns/gate")
}

// BenchmarkWrite renders both sides of a routed pair per iteration, the
// writing work of one question of the qcecd client benchmark's decks.  Run
// with -benchmem.
func BenchmarkWrite(b *testing.B) {
	g, gp := routedCircuits(b)
	gates := len(g.Gates) + len(gp.Gates)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range [2]*circuit.Circuit{g, gp} {
			if _, err := WriteString(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gates), "ns/gate")
}

// TestParseAllocations guards the parser's garbage: a routed 3.8k-gate
// circuit must parse in far fewer allocations than it has gates (a parser
// that allocates per token, per qubit argument or per gate would need
// tens of thousands).
func TestParseAllocations(t *testing.T) {
	g, _, _ := routedPair(t)
	prog, err := Parse(g)
	if err != nil {
		t.Fatal(err)
	}
	gates := len(prog.Circuit.Gates)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Parse(g); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(gates) / 50; allocs > limit {
		t.Fatalf("Parse of a %d-gate circuit made %.0f allocations, want at most %.0f", gates, allocs, limit)
	}
	t.Logf("%d gates, %.0f allocations", gates, allocs)
}
