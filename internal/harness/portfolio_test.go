package harness

import (
	"context"
	"testing"
	"time"

	"qcec/internal/core"
)

// TestRunPortfolioSuite races the standard provers through core.Check on a
// slice of the small suites, output-permuted instances included, and checks
// every verdict against ground truth.
func TestRunPortfolioSuite(t *testing.T) {
	eq, err := BuildEquivalentSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	neq, err := BuildNonEquivalentSuite(Small, 17)
	if err != nil {
		t.Fatal(err)
	}
	permuted := 0
	for _, inst := range append(eq[:3], neq[:3]...) {
		provers := []string{"sim", "dd", "alt"}
		if inst.OutputPerm == nil {
			provers = append(provers, "zx") // zx has no permutation notion
		} else {
			permuted++
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rep := core.Check(inst.G, inst.Gp, core.Options{
			Context: ctx, Provers: provers, R: 4, Seed: 5, OutputPerm: inst.OutputPerm,
		})
		cancel()
		if rep.Err != nil {
			t.Fatalf("%s: %v", inst.Name, rep.Err)
		}
		switch rep.Verdict {
		case core.ProbablyEquivalent:
			t.Errorf("%s: race inconclusive (reports: %+v)", inst.Name, rep.Provers)
		case core.NotEquivalent:
			if inst.WantEquivalent {
				t.Errorf("%s: race says not equivalent (winner %s), want equivalent", inst.Name, rep.DecidedBy)
			}
		default:
			if !inst.WantEquivalent {
				t.Errorf("%s: race says %v (winner %s), want not equivalent", inst.Name, rep.Verdict, rep.DecidedBy)
			}
		}
		if rep.DecidedBy == "" || len(rep.Provers) != len(provers) {
			t.Errorf("%s: missing winner or prover reports: %+v", inst.Name, rep)
		}
	}
	if permuted == 0 {
		t.Fatal("no output-permuted instance in the slice")
	}
}
