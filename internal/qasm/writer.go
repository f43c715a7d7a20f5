package qasm

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"qcec/internal/circuit"
)

// Write renders a circuit as OpenQASM 2.0.  Gates with up to two positive
// controls map onto qelib1 names; negative controls are realized by
// conjugating with X gates; gates with three or more controls are not
// representable in plain qelib1 and cause an error (decompose first).
func Write(w io.Writer, c *circuit.Circuit) error {
	b, err := appendCircuit(c)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteString renders a circuit as an OpenQASM 2.0 string.
func WriteString(c *circuit.Circuit) (string, error) {
	b, err := appendCircuit(c)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendCircuit renders c into one buffer, sized for about 16 bytes a gate
// ("cx q[3],q[4];\n" is 14).
func appendCircuit(c *circuit.Circuit) ([]byte, error) {
	b := make([]byte, 0, 64+16*len(c.Gates))
	b = append(b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q["...)
	b = strconv.AppendInt(b, int64(c.N), 10)
	b = append(b, "];\n"...)
	for i := range c.Gates {
		var err error
		if b, err = appendGate(b, &c.Gates[i]); err != nil {
			return nil, fmt.Errorf("qasm: gate %d (%s): %w", i, c.Gates[i], err)
		}
	}
	return b, nil
}

// appendGate appends g, conjugated with an X on each negative control.
func appendGate(b []byte, g *circuit.Gate) ([]byte, error) {
	b = appendNegatedControls(b, g)
	b, err := appendPositive(b, g)
	if err != nil {
		return b, err
	}
	return appendNegatedControls(b, g), nil
}

func appendNegatedControls(b []byte, g *circuit.Gate) []byte {
	for _, c := range g.Controls {
		if c.Neg {
			b = appendCall(b, "x", nil, c.Qubit)
		}
	}
	return b
}

// appendPositive appends g as if all its controls were positive.
func appendPositive(b []byte, g *circuit.Gate) ([]byte, error) {
	cs := g.Controls
	switch {
	case g.Kind == circuit.SWAP:
		switch len(cs) {
		case 0:
			return appendCall(b, "swap", nil, g.Target, g.Target2), nil
		case 1:
			return appendCall(b, "cswap", nil, cs[0].Qubit, g.Target, g.Target2), nil
		}
		return b, fmt.Errorf("SWAP with %d controls not representable in qelib1", len(cs))
	case g.Kind == circuit.Custom:
		return b, errors.New("custom-matrix gates not representable in OpenQASM 2.0")
	case g.Kind < circuit.I || g.Kind > circuit.U3:
		return b, fmt.Errorf("unsupported gate kind %v", g.Kind)
	}
	// From I to U3, a kind's name is its qelib1 name.
	base := g.Kind.String()
	switch len(cs) {
	case 0:
		return appendCall(b, base, g.Params, g.Target), nil
	case 1:
		name := controlledName(g.Kind)
		if name == "" {
			return b, fmt.Errorf("controlled %s not representable in qelib1", base)
		}
		return appendCall(b, name, g.Params, cs[0].Qubit, g.Target), nil
	case 2:
		switch g.Kind {
		case circuit.X:
			return appendCall(b, "ccx", nil, cs[0].Qubit, cs[1].Qubit, g.Target), nil
		case circuit.Z:
			// ccz via H conjugation on the target.
			b = appendCall(b, "h", nil, g.Target)
			b = appendCall(b, "ccx", nil, cs[0].Qubit, cs[1].Qubit, g.Target)
			return appendCall(b, "h", nil, g.Target), nil
		}
		return b, fmt.Errorf("doubly-controlled %s not representable in qelib1", base)
	}
	return b, fmt.Errorf("%d-controlled %s not representable in qelib1 (decompose first)", len(cs), base)
}

// controlledName is the qelib1 name of kind k under one control, or "".
func controlledName(k circuit.Kind) string {
	switch k {
	case circuit.X:
		return "cx"
	case circuit.Y:
		return "cy"
	case circuit.Z:
		return "cz"
	case circuit.H:
		return "ch"
	case circuit.SX:
		return "csx"
	case circuit.RX:
		return "crx"
	case circuit.RY:
		return "cry"
	case circuit.RZ:
		return "crz"
	case circuit.P:
		return "cp"
	case circuit.U3:
		return "cu3"
	}
	return ""
}

// appendCall appends the statement `name(params) q[a],q[b];`, the
// parameters at 17 significant digits (%.17g), which round-trip exactly.
func appendCall(b []byte, name string, params []float64, qubits ...int) []byte {
	b = append(b, name...)
	for i, p := range params {
		if i == 0 {
			b = append(b, '(')
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, p, 'g', 17, 64)
	}
	if len(params) > 0 {
		b = append(b, ')')
	}
	b = append(b, ' ')
	for i, q := range qubits {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "q["...)
		b = strconv.AppendInt(b, int64(q), 10)
		b = append(b, ']')
	}
	return append(b, ";\n"...)
}
