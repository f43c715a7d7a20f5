package zx_test

import (
	"testing"

	"qcec/internal/circuit"
	"qcec/internal/harness"
	"qcec/internal/zx"
)

// TestReductionDeterministic: every rewrite that depends on which
// neighbour or edge it takes first takes them in a fixed order, so
// repeated checks of one pair give one verdict and one residual diagram.
// When the reduction ranged over Go maps, the medium peephole and Clifford
// recompilation pairs of the prefilter suite, and the compiled
// grover-4@ring pair, were proven on some runs and inconclusive on others.
func TestReductionDeterministic(t *testing.T) {
	prefilter, err := harness.BuildPrefilterSuite(harness.Medium)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := harness.CompiledSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string][2]*circuit.Circuit{}
	for _, inst := range prefilter {
		if inst.Name == "peephole" || inst.Name == "clifford-recompile" {
			pairs[inst.Name] = [2]*circuit.Circuit{inst.G, inst.Gp}
		}
	}
	for _, p := range compiled {
		if p.Name == "grover-4@ring" {
			pairs[p.Name] = [2]*circuit.Circuit{p.Source, p.Compiled}
		}
	}
	if len(pairs) != 3 {
		t.Fatalf("found %d of the 3 pairs", len(pairs))
	}
	for name, pair := range pairs {
		first, err := zx.Check(pair[0], pair[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for run := 1; run < 20; run++ {
			res, err := zx.Check(pair[0], pair[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Verdict != first.Verdict || res.SpidersAfter != first.SpidersAfter {
				t.Fatalf("%s run %d: %v with %d spiders left, run 0: %v with %d",
					name, run, res.Verdict, res.SpidersAfter, first.Verdict, first.SpidersAfter)
			}
		}
		t.Logf("%s: %v, %d -> %d spiders", name, first.Verdict, first.SpidersBefore, first.SpidersAfter)
	}
}
