// Package circuit provides the quantum-circuit intermediate representation
// shared by every stage of the reproduced design flow: benchmark generation,
// decomposition, mapping, optimization, simulation and equivalence checking.
//
// A circuit is a sequence of gates on a fixed register.  Each gate is a
// single-qubit operation with an arbitrary set of (possibly negative)
// controls, or a SWAP (also controllable, giving Fredkin gates).  This is
// exactly the gate model of the paper's Sec. II: arbitrary single-qubit
// operations plus controlled operations, which together are universal.
package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"strings"
)

// Kind enumerates the built-in gate types.
type Kind int

// Built-in gate kinds.  Rotation kinds take parameters (see Gate.Params);
// Custom carries an explicit 2x2 matrix.
const (
	I Kind = iota
	X
	Y
	Z
	H
	S
	Sdg
	T
	Tdg
	SX
	SXdg
	RX
	RY
	RZ
	P
	U2
	U3
	SWAP
	Custom
)

var kindNames = [...]string{
	I: "id", X: "x", Y: "y", Z: "z", H: "h", S: "s", Sdg: "sdg",
	T: "t", Tdg: "tdg", SX: "sx", SXdg: "sxdg",
	RX: "rx", RY: "ry", RZ: "rz", P: "p", U2: "u2", U3: "u3",
	SWAP: "swap", Custom: "unitary",
}

// String returns the lower-case OpenQASM-style name of the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NumParams returns how many real parameters the kind requires.
func (k Kind) NumParams() int {
	switch k {
	case RX, RY, RZ, P:
		return 1
	case U2:
		return 2
	case U3:
		return 3
	default:
		return 0
	}
}

// Control designates a control qubit; Neg selects the |0> branch (a negative
// control, as used by RevLib netlists).
type Control struct {
	Qubit int
	Neg   bool
}

// Gate is one operation of a circuit: a single-qubit operation of the given
// Kind applied to Target under the given Controls, or a SWAP of Target and
// Target2.  Custom gates carry their matrix behind Custom.
//
// A gate is 80 bytes: only Custom gates need a matrix and a label, so both
// sit behind one pointer, and a parsed circuit of thousands of gates is one
// slice the parser can fill again in place (qasm.ParseInto).
type Gate struct {
	Kind     Kind
	Target   int
	Target2  int // second target for SWAP; -1 otherwise
	Controls []Control
	Params   []float64
	Custom   *Unitary // only for Kind == Custom, which Validate requires it for
}

// Unitary is the operation of a Custom gate: its 2x2 matrix and an optional
// provenance note.  Gates and their copies share it by pointer, so it is
// never mutated: Inverse builds a new one.
type Unitary struct {
	Mat   [2][2]complex128
	Label string
}

// Matrix returns the 2x2 matrix of the gate's single-qubit operation.
// It panics for SWAP gates, which have no single 2x2 representation.
func (g Gate) Matrix() [2][2]complex128 {
	switch g.Kind {
	case I:
		return [2][2]complex128{{1, 0}, {0, 1}}
	case X:
		return [2][2]complex128{{0, 1}, {1, 0}}
	case Y:
		return [2][2]complex128{{0, complex(0, -1)}, {complex(0, 1), 0}}
	case Z:
		return [2][2]complex128{{1, 0}, {0, -1}}
	case H:
		s := complex(1/math.Sqrt2, 0)
		return [2][2]complex128{{s, s}, {s, -s}}
	case S:
		return [2][2]complex128{{1, 0}, {0, complex(0, 1)}}
	case Sdg:
		return [2][2]complex128{{1, 0}, {0, complex(0, -1)}}
	case T:
		return [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}
	case Tdg:
		return [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, -math.Pi/4))}}
	case SX:
		return [2][2]complex128{
			{complex(0.5, 0.5), complex(0.5, -0.5)},
			{complex(0.5, -0.5), complex(0.5, 0.5)},
		}
	case SXdg:
		return [2][2]complex128{
			{complex(0.5, -0.5), complex(0.5, 0.5)},
			{complex(0.5, 0.5), complex(0.5, -0.5)},
		}
	case RX:
		c := complex(math.Cos(g.Params[0]/2), 0)
		s := complex(0, -math.Sin(g.Params[0]/2))
		return [2][2]complex128{{c, s}, {s, c}}
	case RY:
		c := complex(math.Cos(g.Params[0]/2), 0)
		s := complex(math.Sin(g.Params[0]/2), 0)
		return [2][2]complex128{{c, -s}, {s, c}}
	case RZ:
		em := cmplx.Exp(complex(0, -g.Params[0]/2))
		ep := cmplx.Exp(complex(0, g.Params[0]/2))
		return [2][2]complex128{{em, 0}, {0, ep}}
	case P:
		return [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, g.Params[0]))}}
	case U2:
		phi, lam := g.Params[0], g.Params[1]
		s := complex(1/math.Sqrt2, 0)
		return [2][2]complex128{
			{s, -s * cmplx.Exp(complex(0, lam))},
			{s * cmplx.Exp(complex(0, phi)), s * cmplx.Exp(complex(0, phi+lam))},
		}
	case U3:
		theta, phi, lam := g.Params[0], g.Params[1], g.Params[2]
		c := complex(math.Cos(theta/2), 0)
		s := complex(math.Sin(theta/2), 0)
		return [2][2]complex128{
			{c, -s * cmplx.Exp(complex(0, lam))},
			{s * cmplx.Exp(complex(0, phi)), c * cmplx.Exp(complex(0, phi+lam))},
		}
	case Custom:
		return g.Custom.Mat
	case SWAP:
		panic("circuit: SWAP has no 2x2 matrix; decompose first")
	default:
		panic(fmt.Sprintf("circuit: unknown gate kind %v", g.Kind))
	}
}

// Inverse returns the gate realizing the adjoint operation on the same
// qubits.
func (g Gate) Inverse() Gate {
	inv := g
	switch g.Kind {
	case I, X, Y, Z, H, SWAP:
		// self-inverse
	case S:
		inv.Kind = Sdg
	case Sdg:
		inv.Kind = S
	case T:
		inv.Kind = Tdg
	case Tdg:
		inv.Kind = T
	case SX:
		inv.Kind = SXdg
	case SXdg:
		inv.Kind = SX
	case RX, RY, RZ, P:
		inv.Params = []float64{-g.Params[0]}
	case U2:
		// U2(phi, lam)^-1 = U3(-pi/2, -lam, -phi)
		inv.Kind = U3
		inv.Params = []float64{-math.Pi / 2, -g.Params[1], -g.Params[0]}
	case U3:
		inv.Params = []float64{-g.Params[0], -g.Params[2], -g.Params[1]}
	case Custom:
		m := g.Custom.Mat
		inv.Custom = &Unitary{Label: g.Custom.Label, Mat: [2][2]complex128{
			{cmplx.Conj(m[0][0]), cmplx.Conj(m[1][0])},
			{cmplx.Conj(m[0][1]), cmplx.Conj(m[1][1])},
		}}
	default:
		panic(fmt.Sprintf("circuit: cannot invert gate kind %v", g.Kind))
	}
	return inv
}

// Qubits returns all qubits the gate touches (targets then controls),
// sorted.
func (g Gate) Qubits() []int {
	qs := []int{g.Target}
	if g.Kind == SWAP {
		qs = append(qs, g.Target2)
	}
	for _, c := range g.Controls {
		qs = append(qs, c.Qubit)
	}
	sort.Ints(qs)
	return qs
}

// String renders the gate in OpenQASM-like syntax.
func (g Gate) String() string {
	var b strings.Builder
	for range g.Controls {
		b.WriteByte('c')
	}
	b.WriteString(g.Kind.String())
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	first := true
	for _, c := range g.Controls {
		if !first {
			b.WriteByte(',')
		}
		first = false
		if c.Neg {
			b.WriteByte('!')
		}
		fmt.Fprintf(&b, "q[%d]", c.Qubit)
	}
	if !first {
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "q[%d]", g.Target)
	if g.Kind == SWAP {
		fmt.Fprintf(&b, ",q[%d]", g.Target2)
	}
	return b.String()
}

// Equal reports structural equality of two gates (same kind, qubits,
// parameters and matrix).
func (g Gate) Equal(o Gate) bool {
	if g.Kind != o.Kind || g.Target != o.Target || g.Target2 != o.Target2 {
		return false
	}
	if len(g.Controls) != len(o.Controls) || len(g.Params) != len(o.Params) {
		return false
	}
	ac, bc := append([]Control(nil), g.Controls...), append([]Control(nil), o.Controls...)
	sortControls(ac)
	sortControls(bc)
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	for i := range g.Params {
		if g.Params[i] != o.Params[i] {
			return false
		}
	}
	return g.Kind != Custom || g.Custom == o.Custom ||
		g.Custom != nil && o.Custom != nil && g.Custom.Mat == o.Custom.Mat
}

func sortControls(cs []Control) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Qubit < cs[j].Qubit })
}
