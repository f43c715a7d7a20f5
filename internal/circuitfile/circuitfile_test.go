package circuitfile

import (
	"os"
	"path/filepath"
	"testing"

	"qcec/internal/circuit"
)

// TestLoadSave: both formats round-trip through the file system, and an
// unknown suffix is an error for Load and for Save, which then creates no
// file; neither does a circuit the format cannot express.
func TestLoadSave(t *testing.T) {
	c := circuit.New(3, "mct")
	c.X(0).CX(0, 1).CCX(0, 1, 2).Swap(1, 2)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"c.qasm", true},
		{"c.real", true},
		{"c.txt", false},
		{"c", false},
		{"c.qasm.bak", false},
	} {
		path := filepath.Join(dir, tc.name)
		err := Save(path, c)
		if Supported(path) != tc.ok {
			t.Errorf("Supported(%q) = %v, want %v", tc.name, !tc.ok, tc.ok)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("Save(%q) accepted an unknown suffix", tc.name)
			}
			if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
				t.Errorf("Save(%q) left a file behind (stat: %v)", tc.name, statErr)
			}
			if _, err := Load(path); err == nil {
				t.Errorf("Load(%q) accepted an unknown suffix", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Save(%q): %v", tc.name, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%q): %v", tc.name, err)
		}
		if got.N != c.N || len(got.Gates) != len(c.Gates) {
			t.Fatalf("%s: round trip gave %d qubits, %d gates; want %d, %d",
				tc.name, got.N, len(got.Gates), c.N, len(c.Gates))
		}
		for i := range c.Gates {
			if !got.Gates[i].Equal(c.Gates[i]) {
				t.Errorf("%s: gate %d = %v, want %v", tc.name, i, got.Gates[i], c.Gates[i])
			}
		}
	}
	quantum := circuit.New(1, "h")
	quantum.H(0)
	path := filepath.Join(dir, "h.real")
	if err := Save(path, quantum); err == nil {
		t.Error("Save wrote an H gate to a RevLib file")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a failed Save left a file behind (stat: %v)", err)
	}
}
