package circuit

import (
	"fmt"
	"strings"
)

// Circuit is a sequence of gates on a register of N qubits.
type Circuit struct {
	N     int
	Name  string
	Gates []Gate
}

// New creates an empty circuit on n qubits.
func New(n int, name string) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: invalid qubit count %d", n))
	}
	return &Circuit{N: n, Name: name}
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{N: c.N, Name: c.Name, Gates: make([]Gate, len(c.Gates))}
	copy(out.Gates, c.Gates)
	for i := range out.Gates {
		if len(out.Gates[i].Controls) > 0 {
			out.Gates[i].Controls = append([]Control(nil), out.Gates[i].Controls...)
		}
		if len(out.Gates[i].Params) > 0 {
			out.Gates[i].Params = append([]float64(nil), out.Gates[i].Params...)
		}
	}
	return out
}

// Add appends a gate after validating it against the register; invalid
// gates panic (builder misuse is a programming error).  Parsers handling
// untrusted input use TryAdd instead.
func (c *Circuit) Add(g Gate) *Circuit {
	if err := c.TryAdd(g); err != nil {
		panic("circuit: " + err.Error())
	}
	return c
}

// TryAdd appends a gate, returning an error instead of panicking when the
// gate is malformed.
func (c *Circuit) TryAdd(g Gate) error {
	if err := g.Validate(c.N); err != nil {
		return err
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// Validate checks a gate against a register of n qubits: every wire lies
// in the register and is named once, only a SWAP sets Target2, the kind
// gets its number of parameters, and a Custom gate has its matrix.  It
// reads the gate where it stands, so a parser can build a gate in place at
// the end of a circuit's Gates and validate it there without copying it.
func (g *Gate) Validate(n int) error {
	check := func(q int) error {
		if q < 0 || q >= n {
			return fmt.Errorf("qubit %d out of range [0,%d)", q, n)
		}
		return nil
	}
	if err := check(g.Target); err != nil {
		return err
	}
	swap := g.Kind == SWAP
	if swap {
		if err := check(g.Target2); err != nil {
			return err
		}
		if g.Target2 == g.Target {
			return fmt.Errorf("SWAP targets coincide on qubit %d", g.Target2)
		}
	} else if g.Target2 != 0 && g.Target2 != -1 {
		return fmt.Errorf("gate %v must not set Target2", g.Kind)
	}
	// A gate touches a handful of wires: compare each control against the
	// targets and the controls before it.
	for i, ctl := range g.Controls {
		if err := check(ctl.Qubit); err != nil {
			return err
		}
		dup := ctl.Qubit == g.Target || swap && ctl.Qubit == g.Target2
		for _, prev := range g.Controls[:i] {
			dup = dup || prev.Qubit == ctl.Qubit
		}
		if dup {
			return fmt.Errorf("qubit %d used twice in one gate", ctl.Qubit)
		}
	}
	if want := g.Kind.NumParams(); len(g.Params) != want {
		return fmt.Errorf("gate %v requires %d parameters, got %d", g.Kind, want, len(g.Params))
	}
	if g.Kind == Custom && g.Custom == nil {
		return fmt.Errorf("gate %v has no matrix", g.Kind)
	}
	return nil
}

// Validate checks every gate of the circuit against the register.
func (c *Circuit) Validate() error {
	for i := range c.Gates {
		if err := c.Gates[i].Validate(c.N); err != nil {
			return fmt.Errorf("gate %d (%s): %w", i, c.Gates[i], err)
		}
	}
	return nil
}

func oneQ(k Kind, t int, params ...float64) Gate {
	return Gate{Kind: k, Target: t, Target2: -1, Params: params}
}

// The fluent builder methods below append common gates.

// X appends a NOT gate.
func (c *Circuit) X(t int) *Circuit { return c.Add(oneQ(X, t)) }

// Y appends a Pauli-Y gate.
func (c *Circuit) Y(t int) *Circuit { return c.Add(oneQ(Y, t)) }

// Z appends a Pauli-Z gate.
func (c *Circuit) Z(t int) *Circuit { return c.Add(oneQ(Z, t)) }

// H appends a Hadamard gate.
func (c *Circuit) H(t int) *Circuit { return c.Add(oneQ(H, t)) }

// S appends a phase gate S.
func (c *Circuit) S(t int) *Circuit { return c.Add(oneQ(S, t)) }

// Sdg appends the adjoint phase gate.
func (c *Circuit) Sdg(t int) *Circuit { return c.Add(oneQ(Sdg, t)) }

// T appends a T gate.
func (c *Circuit) T(t int) *Circuit { return c.Add(oneQ(T, t)) }

// Tdg appends the adjoint T gate.
func (c *Circuit) Tdg(t int) *Circuit { return c.Add(oneQ(Tdg, t)) }

// SX appends a square-root-of-X gate.
func (c *Circuit) SX(t int) *Circuit { return c.Add(oneQ(SX, t)) }

// RX appends an X rotation.
func (c *Circuit) RX(theta float64, t int) *Circuit { return c.Add(oneQ(RX, t, theta)) }

// RY appends a Y rotation.
func (c *Circuit) RY(theta float64, t int) *Circuit { return c.Add(oneQ(RY, t, theta)) }

// RZ appends a Z rotation.
func (c *Circuit) RZ(theta float64, t int) *Circuit { return c.Add(oneQ(RZ, t, theta)) }

// Phase appends a phase gate P(lambda).
func (c *Circuit) Phase(lambda float64, t int) *Circuit { return c.Add(oneQ(P, t, lambda)) }

// U3 appends a generic single-qubit rotation U3(theta, phi, lambda).
func (c *Circuit) U3(theta, phi, lambda float64, t int) *Circuit {
	return c.Add(oneQ(U3, t, theta, phi, lambda))
}

// CX appends a controlled-NOT gate.
func (c *Circuit) CX(ctl, t int) *Circuit {
	return c.Add(Gate{Kind: X, Target: t, Target2: -1, Controls: []Control{{Qubit: ctl}}})
}

// CZ appends a controlled-Z gate.
func (c *Circuit) CZ(ctl, t int) *Circuit {
	return c.Add(Gate{Kind: Z, Target: t, Target2: -1, Controls: []Control{{Qubit: ctl}}})
}

// CPhase appends a controlled phase gate (the QFT workhorse).
func (c *Circuit) CPhase(lambda float64, ctl, t int) *Circuit {
	return c.Add(Gate{Kind: P, Target: t, Target2: -1, Params: []float64{lambda}, Controls: []Control{{Qubit: ctl}}})
}

// CCX appends a Toffoli gate.
func (c *Circuit) CCX(c1, c2, t int) *Circuit {
	return c.Add(Gate{Kind: X, Target: t, Target2: -1, Controls: []Control{{Qubit: c1}, {Qubit: c2}}})
}

// MCX appends a multi-controlled NOT gate.
func (c *Circuit) MCX(controls []int, t int) *Circuit {
	cs := make([]Control, len(controls))
	for i, q := range controls {
		cs[i] = Control{Qubit: q}
	}
	return c.Add(Gate{Kind: X, Target: t, Target2: -1, Controls: cs})
}

// MCXNeg appends a multi-controlled NOT with explicit control polarities.
func (c *Circuit) MCXNeg(controls []Control, t int) *Circuit {
	return c.Add(Gate{Kind: X, Target: t, Target2: -1, Controls: append([]Control(nil), controls...)})
}

// MCZ appends a multi-controlled Z gate.
func (c *Circuit) MCZ(controls []int, t int) *Circuit {
	cs := make([]Control, len(controls))
	for i, q := range controls {
		cs[i] = Control{Qubit: q}
	}
	return c.Add(Gate{Kind: Z, Target: t, Target2: -1, Controls: cs})
}

// Swap appends a SWAP gate.
func (c *Circuit) Swap(a, b int) *Circuit {
	return c.Add(Gate{Kind: SWAP, Target: a, Target2: b})
}

// CSwap appends a Fredkin (controlled-SWAP) gate.
func (c *Circuit) CSwap(ctl, a, b int) *Circuit {
	return c.Add(Gate{Kind: SWAP, Target: a, Target2: b, Controls: []Control{{Qubit: ctl}}})
}

// Append concatenates another circuit (which must act on the same register
// size) onto this one.
func (c *Circuit) Append(other *Circuit) *Circuit {
	if other.N != c.N {
		panic(fmt.Sprintf("circuit: appending %d-qubit circuit to %d-qubit circuit", other.N, c.N))
	}
	for _, g := range other.Gates {
		c.Add(g)
	}
	return c
}

// Inverse returns the circuit realizing the adjoint operation: gates
// reversed and individually inverted.
func (c *Circuit) Inverse() *Circuit {
	out := New(c.N, c.Name+"_inv")
	for i := len(c.Gates) - 1; i >= 0; i-- {
		out.Add(c.Gates[i].Inverse())
	}
	return out
}

// InversePermutation returns perm⁻¹: inv[perm[q]] = q.  The checkers use it
// to undo an output permutation (see core.Options.OutputPerm).
func InversePermutation(perm []int) []int {
	inv := make([]int, len(perm))
	for q, p := range perm {
		inv[p] = q
	}
	return inv
}

// NumGates returns the gate count |G| as reported in the paper's tables.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// Depth returns the circuit depth (number of parallel layers).
func (c *Circuit) Depth() int {
	frontier := make([]int, c.N)
	depth := 0
	for _, g := range c.Gates {
		layer := 0
		for _, q := range g.Qubits() {
			if frontier[q] > layer {
				layer = frontier[q]
			}
		}
		layer++
		for _, q := range g.Qubits() {
			frontier[q] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// GateCounts returns a histogram of gate kinds with the control count folded
// into the key (e.g. "cx", "ccx", "h").
func (c *Circuit) GateCounts() map[string]int {
	counts := make(map[string]int)
	for _, g := range c.Gates {
		key := strings.Repeat("c", len(g.Controls)) + g.Kind.String()
		counts[key]++
	}
	return counts
}

// TwoQubitGates returns the number of gates touching two or more qubits.
func (c *Circuit) TwoQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if len(g.Qubits()) >= 2 {
			n++
		}
	}
	return n
}

// MaxControls returns the largest control count of any gate.
func (c *Circuit) MaxControls() int {
	m := 0
	for _, g := range c.Gates {
		if len(g.Controls) > m {
			m = len(g.Controls)
		}
	}
	return m
}

// String renders the circuit as one gate per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: %d qubits, %d gates\n", c.Name, c.N, len(c.Gates))
	for _, g := range c.Gates {
		b.WriteString(g.String())
		b.WriteString(";\n")
	}
	return b.String()
}
