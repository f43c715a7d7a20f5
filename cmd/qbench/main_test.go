package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunWritesArtifact drives qbench in-process on one small circuit with
// the scaling, Clifford and gate-cost sweeps off: the artifact must parse,
// hold the equivalent and the error-injected pair, and report verdict
// parity.
func TestRunWritesArtifact(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("..", "..", "circuits", "ghz5.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ghz5.qasm"), src, 0o666); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	code := run([]string{"-circuits", dir, "-out", out, "-r", "4", "-reps", "1",
		"-scaling-reps", "0", "-clifford-reps", "0", "-gatecost-sweep=false"})
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if !art.Summary.AllVerdictsMatch {
		t.Error("all_verdicts_match is false")
	}
	if len(art.Results) != 2 || art.Results[0].Name != "ghz5.qasm" || art.Results[1].Name != "ghz5.qasm+err" {
		t.Fatalf("results %+v, want ghz5.qasm and ghz5.qasm+err", art.Results)
	}
	for _, r := range art.Results {
		if r.Kernel.NumSims == 0 || r.Kernel.GateAppsPerSec <= 0 || r.Kernel.Verdict == "" {
			t.Errorf("%s: empty measurement %+v", r.Name, r.Kernel)
		}
	}
	if art.Results[1].Kernel.Verdict != "not equivalent" || art.Results[1].Kernel.Counterexample == nil {
		t.Errorf("error-injected pair: %+v, want a counterexample", art.Results[1].Kernel)
	}
	if len(art.Scaling) != 0 || len(art.Clifford) != 0 || len(art.GateCost) != 0 {
		t.Error("a disabled sweep ran")
	}
	if code := run([]string{"-no-such-flag"}); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
