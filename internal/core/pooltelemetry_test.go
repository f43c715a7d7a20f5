package core_test

import (
	"testing"

	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/harness"
)

// TestPooledTelemetryReproducible runs one sequence of checks on each of two
// fresh one-package pools and requires identical DD telemetry, check by
// check, for the simulation stage (Report.DD) and the complete check
// (Report.EC.DD).  Every check after the first runs on a package recycled
// by Reset, so its node refs come from the free list a collection built;
// the sweep lists free slots in index order, which makes those refs — and
// with them every compute-table collision and hit count — reproducible.
func TestPooledTelemetryReproducible(t *testing.T) {
	pairs, err := harness.CompiledSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []core.Report {
		pool := dd.NewPool(1)
		var out []core.Report
		for _, p := range pairs {
			out = append(out, core.Check(p.Source, p.Compiled, core.Options{R: 8, Seed: 5, Pool: pool}))
		}
		if st := pool.Stats(); st.Reuses == 0 {
			t.Fatalf("no pooled package was reused: %+v", st)
		}
		return out
	}
	first, second := run(), run()
	ecRuns := 0
	for i, p := range pairs {
		a, b := first[i], second[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: %v / %v", p.Name, a.Err, b.Err)
		}
		if a.Verdict != b.Verdict || a.NumSims != b.NumSims {
			t.Errorf("%s: %v after %d sims, then %v after %d", p.Name, a.Verdict, a.NumSims, b.Verdict, b.NumSims)
		}
		if a.DD != b.DD {
			t.Errorf("%s: simulation telemetry differs between pools:\n%+v\n%+v", p.Name, a.DD, b.DD)
		}
		if (a.EC == nil) != (b.EC == nil) {
			t.Fatalf("%s: complete check ran in only one of the runs", p.Name)
		}
		if a.EC != nil {
			ecRuns++
			if a.EC.DD != b.EC.DD {
				t.Errorf("%s: complete-check telemetry differs between pools:\n%+v\n%+v", p.Name, a.EC.DD, b.EC.DD)
			}
		}
	}
	if ecRuns == 0 {
		t.Fatal("no pair reached the complete check")
	}
}
