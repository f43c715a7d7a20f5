package core

import (
	"path/filepath"
	"testing"

	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/errinject"
)

// TestGateCacheParity checks that the gate registry (the gate-DD memo) is
// invisible to results through the whole flow, complete check included: on
// every seed circuit, both for an equivalent pair and an error-injected one,
// a run on fresh packages (a cold registry that builds each gate DD once) and
// a pooled rerun whose registry the same job already filled must produce
// identical verdicts, simulation counts, deciding stages and
// counterexamples.  When the complete check runs, the warm rerun must answer
// every gate DD from the registry and build none.  Collection pressure is
// covered by TestApplyKernelParity.
func TestGateCacheParity(t *testing.T) {
	const r = 6
	for _, path := range seedCircuitFiles(t) {
		g := loadSeedCircuit(t, path)
		type pair struct {
			name string
			gp   *circuit.Circuit
		}
		pairs := []pair{{name: filepath.Base(path), gp: g.Clone()}}
		if bad, inj, err := errinject.InjectAny(g, 1); err == nil {
			pairs = append(pairs, pair{name: filepath.Base(path) + "+" + inj.String(), gp: bad})
		}
		for _, pr := range pairs {
			pr := pr
			t.Run(pr.name, func(t *testing.T) {
				base := Options{R: r, Seed: 1}
				ref := Check(g, pr.gp, base)
				if ref.Err != nil {
					t.Fatalf("cold run failed: %v", ref.Err)
				}

				// One sequential worker and a one-package bucket: the rerun
				// gets back the very package whose registry the warm-up
				// filled, for the simulation stage and the complete check.
				pool := dd.NewPool(1)
				pooled := base
				pooled.Pool = pool
				if warm := Check(g, pr.gp, pooled); warm.Err != nil {
					t.Fatalf("warm-up run failed: %v", warm.Err)
				}
				got := Check(g, pr.gp, pooled)
				if got.Err != nil {
					t.Fatalf("warm run failed: %v", got.Err)
				}
				if st := pool.Stats(); st.Reuses == 0 {
					t.Fatalf("warm run did not reuse the pooled package: %+v", st)
				}

				if got.Verdict != ref.Verdict {
					t.Errorf("warm registry: verdict %v, cold run said %v", got.Verdict, ref.Verdict)
				}
				if got.NumSims != ref.NumSims {
					t.Errorf("warm registry: %d sims, cold run used %d", got.NumSims, ref.NumSims)
				}
				if got.DecidedBy != ref.DecidedBy {
					t.Errorf("warm registry: decided by %q, cold run by %q", got.DecidedBy, ref.DecidedBy)
				}
				switch {
				case (got.Counterexample == nil) != (ref.Counterexample == nil):
					t.Errorf("warm registry: counterexample presence mismatch (%v vs %v)",
						got.Counterexample, ref.Counterexample)
				case got.Counterexample != nil && got.Counterexample.Input != ref.Counterexample.Input:
					t.Errorf("warm registry: counterexample |%b>, cold run found |%b>",
						got.Counterexample.Input, ref.Counterexample.Input)
				}

				if (got.EC == nil) != (ref.EC == nil) {
					t.Fatalf("complete check ran in one run only (warm %v, cold %v)", got.EC != nil, ref.EC != nil)
				}
				if ref.EC == nil {
					return
				}
				if ref.EC.DD.GateMisses == 0 {
					t.Errorf("cold complete check built no gate DD: %+v", ref.EC.DD)
				}
				if st := got.EC.DD; st.GateMisses != 0 || st.GateHits == 0 {
					t.Errorf("warm complete check built %d gate DDs and reused %d; want 0 built",
						st.GateMisses, st.GateHits)
				}
			})
		}
	}
}
