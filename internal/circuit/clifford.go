package circuit

import (
	"fmt"
	"math"

	"qcec/internal/cn"
)

// This file is the gate-set analyzer behind the stabilizer fast path: it
// decides, in one pass and without allocating per gate, whether a circuit is
// built entirely from Clifford gates, and lowers each such gate to one of
// the canonical generators the tableau backend (internal/stab) implements.
//
// Exact members: H, S, S†, X, Y, Z, SX, SX†, CX, CZ, SWAP (no controls
// beyond the single positive control that makes CX/CZ, no negative
// controls).  Parameterized rotations RX/RY/RZ/P count as Clifford exactly
// when their angle sits on a multiple of π/2 — within a tolerance derived
// from the checker's weight tolerance, never hardcoded, so coarsening or
// tightening Options.Tolerance moves the routing decision consistently with
// the equivalence criterion itself (the same derivation as every other
// verdict bound, cn.AgreementTolerance).

// CliffordOp enumerates the canonical Clifford generators the stabilizer
// backend applies directly.  RY90/RY270 are the ±π/2 Y-rotations, which are
// Clifford but not among the named gate kinds (RY(π/2) = X·H, RY(-π/2) =
// H·X up to global phase).
type CliffordOp int

// Canonical Clifford generators.
const (
	CliffI CliffordOp = iota
	CliffX
	CliffY
	CliffZ
	CliffH
	CliffS
	CliffSdg
	CliffSX
	CliffSXdg
	CliffRY90
	CliffRY270
	CliffCX
	CliffCZ
	CliffSwap
)

// String returns the generator name.
func (op CliffordOp) String() string {
	switch op {
	case CliffI:
		return "I"
	case CliffX:
		return "X"
	case CliffY:
		return "Y"
	case CliffZ:
		return "Z"
	case CliffH:
		return "H"
	case CliffS:
		return "S"
	case CliffSdg:
		return "Sdg"
	case CliffSX:
		return "SX"
	case CliffSXdg:
		return "SXdg"
	case CliffRY90:
		return "RY90"
	case CliffRY270:
		return "RY270"
	case CliffCX:
		return "CX"
	case CliffCZ:
		return "CZ"
	case CliffSwap:
		return "SWAP"
	default:
		return fmt.Sprintf("cliffordop(%d)", int(op))
	}
}

// CliffordGate is a circuit gate lowered to a canonical generator.  Q1 is
// the second qubit of two-qubit generators (the target of CX, the second
// wire of CZ/SWAP) and -1 otherwise.
type CliffordGate struct {
	Op CliffordOp
	Q0 int
	Q1 int
}

// Inverse returns the generator realizing the inverse gate.
func (g CliffordGate) Inverse() CliffordGate {
	switch g.Op {
	case CliffS:
		g.Op = CliffSdg
	case CliffSdg:
		g.Op = CliffS
	case CliffSX:
		g.Op = CliffSXdg
	case CliffSXdg:
		g.Op = CliffSX
	case CliffRY90:
		g.Op = CliffRY270
	case CliffRY270:
		g.Op = CliffRY90
	}
	return g
}

// CliffordAngleTolerance derives the rotation-angle snap tolerance of the
// analyzer from the DD weight tolerance (0 = cn.DefaultTolerance): it is
// the weight tolerance itself, 1e-10 radians at the default, capped at
// 1e-3 like every verdict bound (cn.AgreementTolerance).  A parsed angle is
// one number, with no round-off compounded over a gate sequence, so the
// verdict bound itself would be too loose: it would snap rotations the DD
// tells apart from their Clifford neighbour, and the tableau would prove
// pairs the DD complete check refutes.
func CliffordAngleTolerance(weightTol float64) float64 {
	if weightTol == 0 {
		weightTol = cn.DefaultTolerance
	}
	return min(weightTol, 1e-3)
}

// quarterTurns snaps an angle to its nearest multiple of π/2 and reports
// that multiple mod 4, or ok=false when the angle is farther than angleTol
// from every multiple.
func quarterTurns(theta, angleTol float64) (int, bool) {
	k := math.Round(theta / (math.Pi / 2))
	if math.Abs(theta-k*(math.Pi/2)) > angleTol {
		return 0, false
	}
	m := int(math.Mod(k, 4))
	if m < 0 {
		m += 4
	}
	return m, true
}

// AsClifford lowers a gate to a canonical Clifford generator.  ok=false
// means the gate is outside the Clifford set this analyzer certifies:
// non-Clifford kinds (T, U2, U3, Custom, ...), any negative or multiple
// control, or a rotation whose angle is off every π/2 multiple by more than
// angleTol (see CliffordAngleTolerance).
func AsClifford(g Gate, angleTol float64) (CliffordGate, bool) {
	no := CliffordGate{}
	switch len(g.Controls) {
	case 0:
	case 1:
		if g.Controls[0].Neg {
			return no, false
		}
		switch g.Kind {
		case X:
			return CliffordGate{Op: CliffCX, Q0: g.Controls[0].Qubit, Q1: g.Target}, true
		case Z:
			return CliffordGate{Op: CliffCZ, Q0: g.Controls[0].Qubit, Q1: g.Target}, true
		}
		return no, false
	default:
		return no, false
	}
	out := CliffordGate{Q0: g.Target, Q1: -1}
	switch g.Kind {
	case I:
		out.Op = CliffI
	case X:
		out.Op = CliffX
	case Y:
		out.Op = CliffY
	case Z:
		out.Op = CliffZ
	case H:
		out.Op = CliffH
	case S:
		out.Op = CliffS
	case Sdg:
		out.Op = CliffSdg
	case SX:
		out.Op = CliffSX
	case SXdg:
		out.Op = CliffSXdg
	case SWAP:
		out.Q1 = g.Target2
		out.Op = CliffSwap
	case RZ, P:
		m, ok := quarterTurns(g.Params[0], angleTol)
		if !ok {
			return no, false
		}
		out.Op = [4]CliffordOp{CliffI, CliffS, CliffZ, CliffSdg}[m]
	case RX:
		m, ok := quarterTurns(g.Params[0], angleTol)
		if !ok {
			return no, false
		}
		out.Op = [4]CliffordOp{CliffI, CliffSX, CliffX, CliffSXdg}[m]
	case RY:
		m, ok := quarterTurns(g.Params[0], angleTol)
		if !ok {
			return no, false
		}
		out.Op = [4]CliffordOp{CliffI, CliffRY90, CliffY, CliffRY270}[m]
	default:
		return no, false
	}
	return out, true
}

// IsClifford reports whether every gate of the circuit lowers to a
// canonical Clifford generator.  It is a single early-exit pass with no
// allocation — the whole cost a non-Clifford pair pays for the stabilizer
// routing decision.
func IsClifford(c *Circuit, angleTol float64) bool {
	for _, g := range c.Gates {
		if _, ok := AsClifford(g, angleTol); !ok {
			return false
		}
	}
	return true
}

// LowerClifford lowers a whole circuit to canonical generators.  On the
// first non-Clifford gate it stops and returns its index with ok=false
// (badIdx is -1 when ok).
func LowerClifford(c *Circuit, angleTol float64) (ops []CliffordGate, badIdx int, ok bool) {
	ops = make([]CliffordGate, 0, len(c.Gates))
	for i, g := range c.Gates {
		cg, ok := AsClifford(g, angleTol)
		if !ok {
			return nil, i, false
		}
		ops = append(ops, cg)
	}
	return ops, -1, true
}
