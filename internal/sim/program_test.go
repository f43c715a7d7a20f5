package sim

import (
	"slices"
	"sync"
	"testing"

	"qcec/internal/circuit"
)

// progTestCircuit mixes the gate alphabet Prepare must lower: parameterized
// single-qubit gates, multi-controlled X, and a SWAP (expanded into three CX
// factors).
func progTestCircuit() *circuit.Circuit {
	c := circuit.New(4, "mix")
	c.H(0).H(1).H(2).H(3)
	c.T(0).RZ(0.3, 1).Phase(0.7, 2).S(3)
	c.CX(0, 1).CCX(1, 2, 3)
	c.Swap(0, 3)
	c.CX(2, 3).H(2)
	return c
}

// TestProgramMatchesCircuitWalk: on one package, driving the shared Program
// must yield the exact same canonical edge as walking the circuit through
// the per-simulator prepared cache — the program is a different compilation
// route to the same gate sequence, not a different computation.
func TestProgramMatchesCircuitWalk(t *testing.T) {
	c := progTestCircuit()
	prog := Prepare(c)
	if prog.Qubits() != 4 {
		t.Fatalf("Qubits() = %d, want 4", prog.Qubits())
	}
	if prog.Gates() != len(c.Gates) {
		t.Fatalf("Gates() = %d, want %d", prog.Gates(), len(c.Gates))
	}
	s := New(4)
	for input := uint64(0); input < 1<<4; input++ {
		got := s.RunProgram(prog, input)
		want := s.RunFrom(c, s.P.BasisState(input))
		if got != want {
			t.Fatalf("input %d: program edge %+v, circuit walk %+v", input, got, want)
		}
	}
}

// TestSharedProgramConcurrent drives one Program from many goroutines, each
// with its own package and simulator — the parallel stimulus workers'
// sharing pattern.  Run under -race (RACE_PKGS covers internal/sim) it
// proves that binding and running a shared program only reads it, and the
// edge comparison against a private circuit walk proves no worker observes
// another's binding.
func TestSharedProgramConcurrent(t *testing.T) {
	c := progTestCircuit()
	prog := Prepare(c)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := New(4)
			for rep := 0; rep < 3; rep++ {
				for input := uint64(0); input < 1<<4; input++ {
					got := s.RunProgram(prog, input)
					want := s.RunFrom(c, s.P.BasisState(input))
					if got != want {
						t.Errorf("worker %d input %d: program and circuit walk disagree", w, input)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestProgramAlphabet: a program holds each distinct gate once, in order of
// first occurrence, and its steps index into that alphabet, so binding it
// prepares each distinct gate once.  Control order is not part of a gate's
// identity, a SWAP's outer CX factors are one entry, and a gate repeated
// with another angle or target is another entry.
func TestProgramAlphabet(t *testing.T) {
	c := circuit.New(3, "alphabet")
	c.H(0).H(1).H(0)
	c.RZ(0.3, 1).RZ(0.3, 1).RZ(0.4, 1)
	c.CCX(0, 1, 2).MCX([]int{1, 0}, 2)
	c.Swap(0, 2)
	prog := Prepare(c)
	want := []struct {
		target int
		ctl    int // control count
	}{{0, 0}, {1, 0}, {1, 0}, {1, 0}, {2, 2}, {2, 1}, {0, 1}}
	if len(prog.specs) != len(want) {
		t.Fatalf("alphabet of %d gates, want %d", len(prog.specs), len(want))
	}
	for i, w := range want {
		if sp := prog.specs[i]; sp.Target != w.target || len(sp.Controls) != w.ctl {
			t.Errorf("entry %d: target %d with %d controls, want %d with %d", i, sp.Target, len(sp.Controls), w.target, w.ctl)
		}
	}
	ops := []int32{0, 1, 0, 2, 2, 3, 4, 4, 5, 6, 5}
	if !slices.Equal(prog.ops, ops) {
		t.Errorf("steps index %v, want %v", prog.ops, ops)
	}
	s := New(3)
	s.RunProgram(prog, 0)
	if got := len(s.bound[prog]); got != len(want) {
		t.Errorf("binding prepared %d gates, want one per alphabet entry (%d)", got, len(want))
	}
}
