package decompose

import (
	"fmt"

	"qcec/internal/circuit"
)

// Level selects the target gate set.
type Level int

// Target gate sets.
const (
	// LevelToffoli allows single-qubit gates with at most one positive
	// control plus Toffoli (X with two positive controls).
	LevelToffoli Level = iota
	// LevelCX allows arbitrary single-qubit gates plus CX only.
	LevelCX
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelToffoli:
		return "toffoli"
	case LevelCX:
		return "cx"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Circuit lowers every gate of c to the requested level.  The result is
// strictly equivalent (no global-phase slack) to the input.
func Circuit(c *circuit.Circuit, level Level) *circuit.Circuit {
	out, _ := WithProfile(c, level)
	return out
}

// WithProfile lowers c like Circuit and additionally returns the native
// per-gate cost profile: profile[i] is the number of output gates source
// gate i emitted.  The profile's total equals the output gate count, making
// it directly usable as ec.Options.CostProfile (or as a ComposeProfiles
// operand when further stages follow).
func WithProfile(c *circuit.Circuit, level Level) (*circuit.Circuit, []int) {
	d := &decomposer{n: c.N, level: level, out: circuit.New(c.N, c.Name+"_"+level.String())}
	profile := make([]int, len(c.Gates))
	for i, g := range c.Gates {
		before := len(d.out.Gates)
		d.gate(g)
		profile[i] = len(d.out.Gates) - before
	}
	return d.out, profile
}

type decomposer struct {
	n     int
	level Level
	out   *circuit.Circuit
}

func (d *decomposer) emit(g circuit.Gate) { d.out.Add(g) }

// gate dispatches one input gate.
func (d *decomposer) gate(g circuit.Gate) {
	// Negative controls are conjugated away with X gates first; everything
	// below deals with positive controls only.
	var negs []int
	pos := make([]int, 0, len(g.Controls))
	for _, ctl := range g.Controls {
		if ctl.Neg {
			negs = append(negs, ctl.Qubit)
		}
		pos = append(pos, ctl.Qubit)
	}
	for _, q := range negs {
		d.emit(circuit.Gate{Kind: circuit.X, Target: q, Target2: -1})
	}
	if g.Kind == circuit.SWAP {
		d.swap(pos, g.Target, g.Target2)
	} else {
		d.controlled(g, pos)
	}
	for _, q := range negs {
		d.emit(circuit.Gate{Kind: circuit.X, Target: q, Target2: -1})
	}
}

// swap lowers a (multi-)controlled SWAP: SWAP(a,b) = CX(b,a)·CX(a,b)·CX(b,a)
// and a controlled SWAP adds the controls to the middle factor only
// (CSWAP(c;a,b) = CX(b,a)·CCX(c,a;b)·CX(b,a)).
func (d *decomposer) swap(controls []int, a, b int) {
	cxBA := circuit.Gate{Kind: circuit.X, Target: a, Target2: -1, Controls: []circuit.Control{{Qubit: b}}}
	d.controlled(cxBA, []int{b})
	mid := circuit.Gate{Kind: circuit.X, Target: b, Target2: -1}
	midControls := append(append([]int{}, controls...), a)
	d.controlled(mid, midControls)
	d.controlled(cxBA, []int{b})
}

// controlled lowers a single-qubit operation with the given positive
// controls.
func (d *decomposer) controlled(g circuit.Gate, controls []int) {
	base := circuit.Gate{Kind: g.Kind, Target: g.Target, Target2: -1, Params: g.Params, Custom: g.Custom}
	switch len(controls) {
	case 0:
		d.emit(base)
		return
	case 1:
		if g.Kind == circuit.X {
			d.emit(withControls(base, controls))
			return
		}
		if d.level == LevelToffoli {
			d.emit(withControls(base, controls))
			return
		}
		d.controlledU(controls[0], g.Target, gateMatrix(base))
		return
	case 2:
		if g.Kind == circuit.X {
			if d.level == LevelToffoli {
				d.emit(withControls(base, controls))
			} else {
				d.toffoliCliffordT(controls[0], controls[1], g.Target)
			}
			return
		}
	}
	if g.Kind == circuit.X {
		d.mcx(controls, g.Target)
		return
	}
	d.mcu(controls, g.Target, gateMatrix(base))
}

func withControls(g circuit.Gate, controls []int) circuit.Gate {
	cs := make([]circuit.Control, len(controls))
	for i, q := range controls {
		cs[i] = circuit.Control{Qubit: q}
	}
	g.Controls = cs
	return g
}

func gateMatrix(g circuit.Gate) mat2 { return g.Matrix() }

func custom(u mat2, target int, label string) circuit.Gate {
	return circuit.Gate{Kind: circuit.Custom, Target: target, Target2: -1, Custom: &circuit.Unitary{Mat: u, Label: label}}
}

// controlledU emits the textbook CX-based realization of a controlled
// arbitrary single-qubit operation (Barenco et al. Lemma 5.1):
// with U = e^{ia} Rz(b) Ry(g) Rz(d), C = Rz((d-b)/2), B = Ry(-g/2)
// Rz(-(d+b)/2), A = Rz(b) Ry(g/2), the product A·X·B·X·C equals e^{-ia}U,
// so CU = P(a)_ctl · [A]_t · CX · [B]_t · CX · [C]_t.
func (d *decomposer) controlledU(ctl, target int, u mat2) {
	if isIdentity2(u, 1e-14) {
		return
	}
	alpha, beta, gamma, delta := ZYZ(u)
	oneQ := func(kind circuit.Kind, theta float64) {
		if theta != 0 {
			d.emit(circuit.Gate{Kind: kind, Target: target, Target2: -1, Params: []float64{theta}})
		}
	}
	cx := func() {
		d.emit(circuit.Gate{Kind: circuit.X, Target: target, Target2: -1, Controls: []circuit.Control{{Qubit: ctl}}})
	}
	// C
	oneQ(circuit.RZ, (delta-beta)/2)
	cx()
	// B
	oneQ(circuit.RZ, -(delta+beta)/2)
	oneQ(circuit.RY, -gamma/2)
	cx()
	// A
	oneQ(circuit.RY, gamma/2)
	oneQ(circuit.RZ, beta)
	// Phase on the control.
	if alpha != 0 {
		d.emit(circuit.Gate{Kind: circuit.P, Target: ctl, Target2: -1, Params: []float64{alpha}})
	}
}

// toffoliCliffordT emits the standard 15-gate Clifford+T Toffoli network.
func (d *decomposer) toffoliCliffordT(c1, c2, t int) {
	g := func(kind circuit.Kind, q int) {
		d.emit(circuit.Gate{Kind: kind, Target: q, Target2: -1})
	}
	cx := func(c, t int) {
		d.emit(circuit.Gate{Kind: circuit.X, Target: t, Target2: -1, Controls: []circuit.Control{{Qubit: c}}})
	}
	g(circuit.H, t)
	cx(c2, t)
	g(circuit.Tdg, t)
	cx(c1, t)
	g(circuit.T, t)
	cx(c2, t)
	g(circuit.Tdg, t)
	cx(c1, t)
	g(circuit.T, c2)
	g(circuit.T, t)
	g(circuit.H, t)
	cx(c1, c2)
	g(circuit.T, c1)
	g(circuit.Tdg, c2)
	cx(c1, c2)
}

// freeWire returns a wire not in use by the given operands, or -1.
func freeWire(n int, used map[int]bool) int {
	for q := 0; q < n; q++ {
		if !used[q] {
			return q
		}
	}
	return -1
}

// mcx lowers a multi-controlled NOT (3+ controls).  With a borrowed free
// wire it uses the Barenco split (quadratic cost); on a full register it
// falls back to the ancilla-free square-root recursion (polynomially larger
// cost, matching the severe gate-count blowups of the paper's reversible
// benchmarks).
func (d *decomposer) mcx(controls []int, target int) {
	used := make(map[int]bool, len(controls)+1)
	for _, q := range controls {
		used[q] = true
	}
	used[target] = true
	if a := freeWire(d.n, used); a >= 0 {
		d.mcxSplit(controls, target, a)
		return
	}
	d.mcu(controls, target, mat2{{0, 1}, {1, 0}})
}

// mcxSplit implements Barenco et al. Lemma 7.3: with a borrowed wire a,
// C^c X(C; t) = B·A·B·A where A = C^m X(C1; a) and
// B = C^{c-m+1} X(C2 ∪ {a}; t), C1 ∪ C2 = C, m = ceil(c/2).
// The borrowed wire's state is restored, so it need not be clean.
func (d *decomposer) mcxSplit(controls []int, target, a int) {
	c := len(controls)
	m := (c + 1) / 2
	c1 := controls[:m]
	c2 := append(append([]int{}, controls[m:]...), a)
	emitHalf := func(cs []int, t int) {
		if len(cs) <= 2 {
			d.controlled(circuit.Gate{Kind: circuit.X, Target: t, Target2: -1}, cs)
			return
		}
		d.mcx(cs, t)
	}
	emitHalf(c1, a)      // A
	emitHalf(c2, target) // B
	emitHalf(c1, a)      // A
	emitHalf(c2, target) // B
}

// mcu lowers a multi-controlled single-qubit operation with the ancilla-free
// square-root recursion (Barenco et al. Lemma 7.5):
// C^c U = C_{qc}(V) · C^{c-1}X(qc) · C_{qc}(V†) · C^{c-1}X(qc) · C^{c-1}(V)
// with V² = U.
func (d *decomposer) mcu(controls []int, target int, u mat2) {
	switch len(controls) {
	case 0:
		if d.level == LevelCX {
			d.emitCustomSingle(u, target)
		} else {
			d.emit(custom(u, target, "u"))
		}
		return
	case 1:
		if d.level == LevelToffoli {
			d.emit(withControls(custom(u, target, "cu"), controls))
		} else {
			d.controlledU(controls[0], target, u)
		}
		return
	}
	v := Sqrt2(u)
	last := controls[len(controls)-1]
	rest := controls[:len(controls)-1]
	d.mcu([]int{last}, target, v)
	d.controlled(circuit.Gate{Kind: circuit.X, Target: last, Target2: -1}, rest)
	d.mcu([]int{last}, target, dagger2(v))
	d.controlled(circuit.Gate{Kind: circuit.X, Target: last, Target2: -1}, rest)
	d.mcu(rest, target, v)
}

// emitCustomSingle emits an uncontrolled arbitrary single-qubit operation as
// rotation gates (so that LevelCX output contains only named gates).
func (d *decomposer) emitCustomSingle(u mat2, target int) {
	if isIdentity2(u, 1e-14) {
		return
	}
	alpha, beta, gamma, delta := ZYZ(u)
	if delta != 0 {
		d.emit(circuit.Gate{Kind: circuit.RZ, Target: target, Target2: -1, Params: []float64{delta}})
	}
	if gamma != 0 {
		d.emit(circuit.Gate{Kind: circuit.RY, Target: target, Target2: -1, Params: []float64{gamma}})
	}
	if beta != 0 {
		d.emit(circuit.Gate{Kind: circuit.RZ, Target: target, Target2: -1, Params: []float64{beta}})
	}
	if alpha != 0 {
		// Global phase must be preserved exactly for strict equivalence:
		// realize e^{ia} as P(a)·X·P(a)·X.
		d.emit(circuit.Gate{Kind: circuit.P, Target: target, Target2: -1, Params: []float64{alpha}})
		d.emit(circuit.Gate{Kind: circuit.X, Target: target, Target2: -1})
		d.emit(circuit.Gate{Kind: circuit.P, Target: target, Target2: -1, Params: []float64{alpha}})
		d.emit(circuit.Gate{Kind: circuit.X, Target: target, Target2: -1})
	}
}
