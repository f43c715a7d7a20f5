package core

import (
	"os"
	"path/filepath"
	"testing"

	"qcec/internal/circuit"
	"qcec/internal/circuitfile"
	"qcec/internal/errinject"
)

// loadSeedCircuit parses one of the repo's seed benchmark circuits.
func loadSeedCircuit(tb testing.TB, path string) *circuit.Circuit {
	tb.Helper()
	c, err := circuitfile.Load(path)
	if err != nil {
		tb.Fatalf("load %s: %v", path, err)
	}
	return c
}

func seedCircuitFiles(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("..", "..", "circuits")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read seed circuits: %v", err)
	}
	var files []string
	for _, e := range entries {
		if circuitfile.Supported(e.Name()) {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatal("no seed circuits found")
	}
	return files
}

// TestApplyKernelParity checks that collection pacing is invisible to
// end-to-end results: on every seed circuit, both for an equivalent pair and
// an error-injected one, the default run and a run under constant
// garbage-collection pressure — which invalidates the apply compute tables
// and re-roots the gate registry mid-simulation many times over — must
// produce identical verdicts, simulation counts, and counterexamples.  The
// kernel's agreement with the full-matrix reference path is pinned gate by
// gate in internal/sim.
func TestApplyKernelParity(t *testing.T) {
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
				base := Options{R: r, Seed: 1, SkipEC: true}
				ref := Check(g, pr.gp, base)

				// Collect after nearly every node allocation.
				got := checkAtSimFloor(32, g, pr.gp, base)

				if got.Verdict != ref.Verdict {
					t.Errorf("gc-pressure: verdict %v, default run said %v", got.Verdict, ref.Verdict)
				}
				if got.NumSims != ref.NumSims {
					t.Errorf("gc-pressure: %d sims, default run used %d", got.NumSims, ref.NumSims)
				}
				switch {
				case (got.Counterexample == nil) != (ref.Counterexample == nil):
					t.Errorf("gc-pressure: counterexample presence mismatch (%v vs %v)",
						got.Counterexample, ref.Counterexample)
				case got.Counterexample != nil && got.Counterexample.Input != ref.Counterexample.Input:
					t.Errorf("gc-pressure: counterexample |%b>, default run found |%b>",
						got.Counterexample.Input, ref.Counterexample.Input)
				}
			})
		}
	}
}
