// Package sim implements decision-diagram based simulation of quantum
// circuits — the engine behind the paper's headline result.
//
// Simulating a circuit on a computational basis state |i> computes the i-th
// column of the circuit's system matrix using only matrix-vector products
// (paper Sec. III-B).  This is dramatically cheaper than the matrix-matrix
// products needed to construct the complete functionality, which is exactly
// the asymmetry the proposed equivalence-checking flow exploits.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"qcec/internal/circuit"
	"qcec/internal/dd"
)

// ToDDControls converts circuit controls to DD controls.
func ToDDControls(cs []circuit.Control) []dd.Control {
	if len(cs) == 0 {
		return nil
	}
	out := make([]dd.Control, len(cs))
	for i, c := range cs {
		out[i] = dd.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	return out
}

// swapAsCXs returns the three CX gates realizing a (controlled) SWAP.
// Controlling each factor on the SWAP's own controls is sound because all
// three factors are block-diagonal with respect to the control subspace.
func swapAsCXs(g circuit.Gate) [3]circuit.Gate {
	a, b := g.Target, g.Target2
	cx := func(ctl, tgt int) circuit.Gate {
		// Exactly sized and freshly backed: the factors must never alias
		// (or grow into) the input gate's controls slice.
		controls := make([]circuit.Control, 0, len(g.Controls)+1)
		controls = append(controls, circuit.Control{Qubit: ctl})
		controls = append(controls, g.Controls...)
		return circuit.Gate{Kind: circuit.X, Target: tgt, Target2: -1, Controls: controls}
	}
	return [3]circuit.Gate{cx(a, b), cx(b, a), cx(a, b)}
}

// GateDD builds the full-register matrix DD of a circuit gate (including
// SWAP gates, which are expanded into three CX factors).
func GateDD(p *dd.Package, g circuit.Gate) dd.MEdge {
	if g.Kind == circuit.SWAP {
		cxs := swapAsCXs(g)
		m := GateDD(p, cxs[0])
		m = p.MulMM(GateDD(p, cxs[1]), m)
		m = p.MulMM(GateDD(p, cxs[2]), m)
		return m
	}
	return p.GateDD(g.Matrix(), g.Target, ToDDControls(g.Controls))
}

// ApplyGate applies a single gate to a state DD through the direct
// gate-application kernel (dd.ApplyGateV), which walks the state without
// building the gate's matrix DD.  SWAPs expand into three CX factors.
func ApplyGate(p *dd.Package, state dd.VEdge, g circuit.Gate) dd.VEdge {
	if g.Kind == circuit.SWAP {
		for _, cx := range swapAsCXs(g) {
			state = ApplyGate(p, state, cx)
		}
		return state
	}
	return p.ApplyGateV(g.Matrix(), g.Target, ToDDControls(g.Controls), state)
}

// Simulator runs circuits on a DD package, garbage-collecting as needed.
type Simulator struct {
	P *dd.Package

	// GatesApplied counts the elementary gate applications performed, for
	// the experiment reports.
	GatesApplied int64

	// PinnedM lists matrix DDs that every garbage collection during a run
	// keeps alive, such as an un-permutation matrix the caller applies to
	// the run's result.  Edges not rooted here or in the run's state pins
	// may be collected at any gate.
	PinnedM []dd.MEdge

	// bound caches the package-local binding of each shared Program this
	// simulator has run, one prepared gate per alphabet entry, so a worker
	// binds a program once and then pays only the kernel recursion per
	// application.
	bound map[*Program][]*dd.PreparedGate
}

// Program is an immutable, package-independent compilation of a circuit:
// a gate alphabet — every distinct gate lowered once to its dd.GateSpec
// form, paying the per-gate matrix construction, including the
// trigonometry of parameterized gates, once — plus, per circuit gate, the
// alphabet indices of its factors (a SWAP has three CX factors).  A routed
// netlist repeats a few hundred distinct gates across thousands of steps,
// so binding the program to a package prepares only the alphabet.  A
// Program is read-only after Prepare returns and may be shared freely
// across goroutines; parallel stimulus workers each bind it to their own
// private package (see Simulator.bind) and drive the one shared copy.
type Program struct {
	n     int
	specs []dd.GateSpec // the alphabet, in order of first occurrence
	ops   []int32       // alphabet indices of every step's factors, in order
	ends  []int32       // ends[i]: the end of circuit gate i's factors in ops
}

// specKey identifies an alphabet entry: the exact 2×2 matrix, the target
// and the positive and negative control masks.  Control order is not part
// of it, as the package's gate registry ignores it too.
type specKey struct {
	u        [2][2]complex128
	target   int
	pos, neg uint64
}

// stepKey identifies a step before its matrix is built: the gate's kind,
// parameters, target and control masks.  Equal step keys give equal
// matrices (parameters compare as floats, as the matrices' entries do), so
// a repeated step finds its alphabet entry without building the matrix.
type stepKey struct {
	kind     circuit.Kind
	params   [3]float64
	nparams  int
	target   int
	pos, neg uint64
}

// controlMasks returns a gate's positive and negative control masks, or
// false when the masks cannot stand for its qubits: an index outside them,
// or a control listed twice.  Such a gate gets an entry of its own, and
// binding it reports the fault.
func controlMasks(g *circuit.Gate) (pos, neg uint64, ok bool) {
	if g.Target < 0 || g.Target >= dd.MaxQubits {
		return 0, 0, false
	}
	for _, c := range g.Controls {
		if c.Qubit < 0 || c.Qubit >= dd.MaxQubits {
			return 0, 0, false
		}
		bit := uint64(1) << uint(c.Qubit)
		if (pos|neg)&bit != 0 {
			return 0, 0, false
		}
		if c.Neg {
			neg |= bit
		} else {
			pos |= bit
		}
	}
	return pos, neg, true
}

// Prepare compiles a circuit into a shareable Program.  The circuit's gates
// must not be mutated afterwards (the specs alias nothing from the circuit,
// but the compilation reflects the gates at call time).  Each step is
// looked up by its stepKey first; only a step not seen before builds its
// matrix, which finds or adds its alphabet entry by specKey, so gates of
// different kinds with one matrix (T and P(π/4)) share an entry.
func Prepare(c *circuit.Circuit) *Program {
	pr := &Program{n: c.N, ops: make([]int32, 0, len(c.Gates)), ends: make([]int32, len(c.Gates))}
	index := make(map[specKey]int32)
	steps := make(map[stepKey]int32)
	add := func(g *circuit.Gate) {
		pos, neg, ok := controlMasks(g)
		keyed := ok && g.Kind != circuit.Custom && len(g.Params) <= 3
		var sk stepKey
		if keyed {
			sk = stepKey{kind: g.Kind, nparams: len(g.Params), target: g.Target, pos: pos, neg: neg}
			copy(sk.params[:], g.Params)
			if i, seen := steps[sk]; seen {
				pr.ops = append(pr.ops, i)
				return
			}
		}
		u := g.Matrix()
		k := specKey{u: u, target: g.Target, pos: pos, neg: neg}
		i, seen := index[k]
		if !ok || !seen {
			i = int32(len(pr.specs))
			pr.specs = append(pr.specs, dd.GateSpec{U: u, Target: g.Target, Controls: ToDDControls(g.Controls)})
			if ok {
				index[k] = i
			}
		}
		if keyed {
			steps[sk] = i
		}
		pr.ops = append(pr.ops, i)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Kind == circuit.SWAP {
			for _, cx := range swapAsCXs(*g) {
				add(&cx)
			}
		} else {
			add(g)
		}
		pr.ends[i] = int32(len(pr.ops))
	}
	return pr
}

// Qubits returns the register size the program was compiled for.
func (pr *Program) Qubits() int { return pr.n }

// Gates returns the number of circuit gates in the program (SWAP factors
// count as their originating gate).
func (pr *Program) Gates() int { return len(pr.ends) }

// bind returns (binding and caching on first use) the package-local
// prepared form of a shared program: one prepared gate per alphabet entry,
// prepared in alphabet order, which is the order in which the steps first
// use them, so the package's registry assigns the ids a step-by-step
// binding would.  Binding only reads the program.
func (s *Simulator) bind(prog *Program) []*dd.PreparedGate {
	if pg, ok := s.bound[prog]; ok {
		return pg
	}
	pg := make([]*dd.PreparedGate, len(prog.specs))
	for i, sp := range prog.specs {
		pg[i] = s.P.PrepareSpec(sp)
	}
	if s.bound == nil {
		s.bound = make(map[*Program][]*dd.PreparedGate, 2)
	}
	s.bound[prog] = pg
	return pg
}

// RunProgram simulates the program on basis state |input> and returns the
// final state DD (cf. Run).
func (s *Simulator) RunProgram(prog *Program, input uint64) dd.VEdge {
	if prog.n != s.P.Qubits() {
		panic(fmt.Sprintf("sim: program on %d qubits, package on %d", prog.n, s.P.Qubits()))
	}
	return s.RunProgramWithPins(prog, s.P.BasisState(input), nil)
}

// RunProgramWithPins simulates a shared program starting from an arbitrary
// state DD, keeping the given states alive across garbage collections.  It
// is the simulator's one gate-application loop: every run, whether of a
// shared program or of a circuit (RunFrom), goes through it.
func (s *Simulator) RunProgramWithPins(prog *Program, state dd.VEdge, pins []dd.VEdge) dd.VEdge {
	roots := make([]dd.VEdge, 0, len(pins)+1)
	gates := s.bind(prog)
	start := int32(0)
	for _, end := range prog.ends {
		for _, op := range prog.ops[start:end] {
			state = s.P.ApplyPrepared(gates[op], state)
		}
		start = end
		s.GatesApplied++
		faultStep(s.GatesApplied)
		roots = append(roots[:0], pins...)
		roots = append(roots, state)
		s.P.MaybeGC(roots, s.PinnedM)
	}
	return state
}

// New creates a simulator on a fresh default package for n qubits.
func New(n int) *Simulator { return &Simulator{P: dd.NewDefault(n)} }

// NewOn creates a simulator sharing an existing package (so states from
// different circuits can be compared by pointer/fidelity).
func NewOn(p *dd.Package) *Simulator { return &Simulator{P: p} }

// Run simulates the circuit on basis state |input> and returns the final
// state DD (the input-th column of the circuit's system matrix).
func (s *Simulator) Run(c *circuit.Circuit, input uint64) dd.VEdge {
	if c.N != s.P.Qubits() {
		panic(fmt.Sprintf("sim: circuit on %d qubits, package on %d", c.N, s.P.Qubits()))
	}
	return s.RunFrom(c, s.P.BasisState(input))
}

// RunFrom simulates the circuit starting from an arbitrary state DD.
func (s *Simulator) RunFrom(c *circuit.Circuit, state dd.VEdge) dd.VEdge {
	return s.RunFromWithPins(c, state, nil)
}

// RunFromWithPins simulates like RunFrom but additionally keeps the given
// states alive across garbage collections (used when comparing runs of two
// circuits on one package).  It compiles the circuit afresh on every call
// and keeps no binding of it; a caller that runs one circuit many times
// should Prepare it once and use RunProgramWithPins.
func (s *Simulator) RunFromWithPins(c *circuit.Circuit, state dd.VEdge, pins []dd.VEdge) dd.VEdge {
	prog := Prepare(c)
	defer delete(s.bound, prog)
	return s.RunProgramWithPins(prog, state, pins)
}

// faultHook, when installed, observes every circuit-gate step of every
// simulator in the process (internal/faultinject's slow-prover fault).  A
// pointer-to-func in an atomic.Pointer keeps the production cost at one
// atomic load per gate.
var faultHook atomic.Pointer[func(gatesApplied int64)]

// SetFaultHook installs (or with nil removes) a process-wide per-gate hook
// called with the simulator's running gate count after each circuit gate.
// It is a fault-injection seam for chaos tests; production code never sets
// it.  Install it before simulation goroutines start.
func SetFaultHook(f func(gatesApplied int64)) {
	if f == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&f)
}

func faultStep(gatesApplied int64) {
	if h := faultHook.Load(); h != nil {
		(*h)(gatesApplied)
	}
}

// BuildUnitary constructs the complete system matrix DD of a circuit by
// matrix-matrix multiplication — the expensive "full functional coverage"
// the paper's flow avoids whenever simulation suffices.
func BuildUnitary(p *dd.Package, c *circuit.Circuit) dd.MEdge {
	if c.N != p.Qubits() {
		panic(fmt.Sprintf("sim: circuit on %d qubits, package on %d", c.N, p.Qubits()))
	}
	u := p.Identity()
	for _, g := range c.Gates {
		u = p.MulMM(GateDD(p, g), u)
		p.MaybeGC(nil, []dd.MEdge{u})
	}
	return u
}

// PermutationDD builds the matrix DD of the qubit permutation perm, where
// output wire perm[q] carries what input wire q carried, i.e.
// P|x> = |y> with y_{perm[q]} = x_q.
func PermutationDD(p *dd.Package, perm []int) dd.MEdge {
	n := p.Qubits()
	if len(perm) != n {
		panic(fmt.Sprintf("sim: permutation on %d wires, package on %d", len(perm), n))
	}
	cur := make([]int, n) // cur[q]: wire currently holding logical q
	seen := make([]bool, n)
	for i, t := range perm {
		if t < 0 || t >= n || seen[t] {
			panic(fmt.Sprintf("sim: invalid permutation %v", perm))
		}
		seen[t] = true
		cur[i] = i
	}
	pos := make([]int, n) // pos[w]: logical qubit on wire w
	for q := range pos {
		pos[q] = q
	}
	u := p.Identity()
	xMat := [2][2]complex128{{0, 1}, {1, 0}}
	swapDD := func(a, b int) dd.MEdge {
		m := p.GateDD(xMat, b, []dd.Control{{Qubit: a}})
		m2 := p.GateDD(xMat, a, []dd.Control{{Qubit: b}})
		return p.MulMM(m, p.MulMM(m2, m))
	}
	for q := 0; q < n; q++ {
		want := perm[q]
		have := cur[q]
		if have == want {
			continue
		}
		u = p.MulMM(swapDD(have, want), u)
		other := pos[want] // logical qubit currently on the desired wire
		cur[q], cur[other] = want, have
		pos[want], pos[have] = q, other
	}
	return u
}

// Pair compares two circuits column by column on one package: the paper's
// basic operation (Sec. III-B), simulating G and G' on a basis state and
// comparing the two outputs.  The flow's simulation stage and the theory
// experiment both go through it.
type Pair struct {
	s      *Simulator
	g, gp  *Program
	unperm dd.MEdge // inverse output permutation of G'; nil weight if none
}

// NewPair binds the programs of G and G' to a simulator on p.  outputPerm
// (nil for the identity) declares that output wire outputPerm[q] of G'
// carries what wire q of G carries; its inverse is built once here and
// pinned together with keep, matrix DDs the caller holds on p, so every
// collection of the pair's runs, and MaybeGC, keeps them.
func NewPair(p *dd.Package, g, gp *Program, outputPerm []int, keep ...dd.MEdge) *Pair {
	pr := &Pair{s: NewOn(p), g: g, gp: gp}
	if outputPerm != nil {
		pr.unperm = PermutationDD(p, circuit.InversePermutation(outputPerm))
		keep = append([]dd.MEdge{pr.unperm}, keep...)
	}
	pr.s.PinnedM = keep
	return pr
}

// MaybeGC collects the package between columns (dd.Package.MaybeGC),
// keeping only the pinned matrices.
func (pr *Pair) MaybeGC() { pr.s.P.MaybeGC(nil, pr.s.PinnedM) }

// Pinned returns the matrix DDs the pair keeps across collections (the
// un-permutation matrix, if any, and NewPair's keep): other work on the
// package, such as a complete check between two runs of columns, must
// keep them.
func (pr *Pair) Pinned() []dd.MEdge { return pr.s.PinnedM }

// Column is the outcome of comparing one basis column of G and G'.
type Column struct {
	U, V      dd.VEdge   // the outputs of G and of G', un-permuted
	Overlap   complex128 // <u|u'>
	Identical bool       // U and V are the same DD edge (node and interned weight)
}

// Fidelity returns |<u|u'>|^2.
func (c Column) Fidelity() float64 {
	re, im := real(c.Overlap), imag(c.Overlap)
	return re*re + im*im
}

// Compare simulates both circuits on |input> and compares the outputs.  The
// input state is built once for both runs, so it is pinned across G's run,
// and G's output across the run of G'.  The returned edges stay valid
// until the package's next collection.
func (pr *Pair) Compare(input uint64) Column {
	p := pr.s.P
	in := p.BasisState(input)
	u := pr.s.RunProgramWithPins(pr.g, in, []dd.VEdge{in})
	v := pr.s.RunProgramWithPins(pr.gp, in, []dd.VEdge{u})
	if pr.unperm.W != nil {
		v = p.MulMV(pr.unperm, v)
	}
	return Column{U: u, V: v, Overlap: p.InnerProduct(u, v), Identical: u == v}
}

// SampleCounts draws shots samples from the final state of the circuit run
// on |input>.
func (s *Simulator) SampleCounts(c *circuit.Circuit, input uint64, shots int, rng *rand.Rand) map[uint64]int {
	st := s.Run(c, input)
	counts := make(map[uint64]int)
	for i := 0; i < shots; i++ {
		counts[s.P.Sample(st, rng)]++
	}
	return counts
}

// ExpectationZ returns <psi|Z_q|psi> for a state DD — the observable used by
// the chemistry-style workloads.  Z_q is diagonal, so the value is the
// probability of qubit q being 0 minus the probability of it being 1.
func (s *Simulator) ExpectationZ(state dd.VEdge, q int) float64 {
	zGate := circuit.Gate{Kind: circuit.Z, Target: q, Target2: -1}
	return real(s.P.InnerProduct(state, ApplyGate(s.P, state, zGate)))
}
