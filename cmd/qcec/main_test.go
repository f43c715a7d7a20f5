package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExitCodes drives the command end to end: every flag must reach the
// mode it names, and an option the race cannot honour is a usage error.
func TestExitCodes(t *testing.T) {
	circuits := filepath.Join("..", "..", "circuits")
	qft8 := filepath.Join(circuits, "qft8.qasm")
	ghz5 := filepath.Join(circuits, "ghz5.qasm")
	src, err := os.ReadFile(ghz5)
	if err != nil {
		t.Fatal(err)
	}
	buggy := filepath.Join(t.TempDir(), "ghz5_buggy.qasm")
	if err := os.WriteFile(buggy, append(src, "x q[0];\n"...), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"equivalent", []string{qft8, qft8}, 0},
		{"node limit reaches the pipeline", []string{"-node-limit", "8", qft8, qft8}, 3},
		{"node limit reaches the race", []string{"-portfolio", "-provers=alt", "-node-limit", "8", qft8, qft8}, 3},
		{"not equivalent", []string{ghz5, buggy}, 1},
		{"race finds the counterexample", []string{"-portfolio", "-json", ghz5, buggy}, 1},
		{"race rejects -sim-only", []string{"-portfolio", "-sim-only", qft8, qft8}, 2},
		{"race rejects -zx", []string{"-portfolio", "-zx", qft8, qft8}, 2},
		{"unknown prover", []string{"-portfolio", "-provers=bogus", qft8, qft8}, 2},
		{"unknown strategy", []string{"-strategy", "bogus", qft8, qft8}, 2},
		{"strategy alias", []string{"-strategy", "compilation_flow", qft8, qft8}, 0},
		{"missing circuit", []string{qft8}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args); got != tc.want {
				t.Fatalf("qcec %v exited %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
