package zx

import (
	"context"
	"fmt"
	"math"

	"qcec/internal/circuit"
	"qcec/internal/decompose"
)

// builder tracks, per circuit wire, the vertex the wire currently dangles
// from and whether a Hadamard is pending on it (this absorbs both H gates
// and the Z↔X colour change, so the diagram is born graph-like: Z spiders
// only).
type builder struct {
	g       *Graph
	cur     []int
	pending []bool
	inputs  []int
}

func newBuilder(n int) *builder {
	b := &builder{g: NewGraph(), cur: make([]int, n), pending: make([]bool, n), inputs: make([]int, n)}
	for q := 0; q < n; q++ {
		v := b.g.addVertex(kindBoundaryIn, 0, q)
		b.inputs[q] = v
		b.cur[q] = v
	}
	return b
}

// zSpider appends a Z spider with the given phase to wire q.
func (b *builder) zSpider(q int, phase float64) int {
	v := b.g.addVertex(kindSpider, phase, -1)
	b.g.addEdge(b.cur[q], v, b.pending[q])
	b.pending[q] = false
	b.cur[q] = v
	return v
}

// xSpider appends an X spider (realized as an H-conjugated Z spider).
func (b *builder) xSpider(q int, phase float64) int {
	b.pending[q] = !b.pending[q]
	v := b.zSpider(q, phase)
	b.pending[q] = !b.pending[q]
	return v
}

func (b *builder) hadamard(q int) { b.pending[q] = !b.pending[q] }

func (b *builder) cx(ctl, tgt int) {
	zc := b.zSpider(ctl, 0)
	xt := b.xSpider(tgt, 0)
	// Plain edge between a Z and an X spider; with the X spider stored as an
	// H-conjugated Z spider this becomes a Hadamard edge.
	b.g.addEdge(zc, xt, true)
}

func (b *builder) cz(aq, bq int) {
	za := b.zSpider(aq, 0)
	zb := b.zSpider(bq, 0)
	b.g.addEdge(za, zb, true)
}

func (b *builder) swap(aq, bq int) {
	b.cur[aq], b.cur[bq] = b.cur[bq], b.cur[aq]
	b.pending[aq], b.pending[bq] = b.pending[bq], b.pending[aq]
}

// gate translates one circuit gate.  Multi-controlled gates must have been
// decomposed away beforehand.
func (b *builder) gate(g circuit.Gate) error {
	if len(g.Controls) > 1 {
		return fmt.Errorf("zx: %d-controlled gate not supported (decompose first)", len(g.Controls))
	}
	if len(g.Controls) == 1 {
		if g.Controls[0].Neg {
			return fmt.Errorf("zx: negative control not supported (decompose first)")
		}
		switch g.Kind {
		case circuit.X:
			b.cx(g.Controls[0].Qubit, g.Target)
			return nil
		case circuit.Z:
			b.cz(g.Controls[0].Qubit, g.Target)
			return nil
		case circuit.SWAP:
			return fmt.Errorf("zx: controlled SWAP not supported (decompose first)")
		default:
			return fmt.Errorf("zx: controlled %v not supported (decompose first)", g.Kind)
		}
	}
	switch g.Kind {
	case circuit.I:
	case circuit.H:
		b.hadamard(g.Target)
	case circuit.Z:
		b.zSpider(g.Target, math.Pi)
	case circuit.S:
		b.zSpider(g.Target, math.Pi/2)
	case circuit.Sdg:
		b.zSpider(g.Target, -math.Pi/2)
	case circuit.T:
		b.zSpider(g.Target, math.Pi/4)
	case circuit.Tdg:
		b.zSpider(g.Target, -math.Pi/4)
	case circuit.P:
		b.zSpider(g.Target, g.Params[0])
	case circuit.RZ:
		b.zSpider(g.Target, g.Params[0]) // up to global phase
	case circuit.X:
		b.xSpider(g.Target, math.Pi)
	case circuit.SX:
		b.xSpider(g.Target, math.Pi/2)
	case circuit.SXdg:
		b.xSpider(g.Target, -math.Pi/2)
	case circuit.RX:
		b.xSpider(g.Target, g.Params[0])
	case circuit.Y:
		// Y = X·Z up to global phase.
		b.zSpider(g.Target, math.Pi)
		b.xSpider(g.Target, math.Pi)
	case circuit.RY:
		// Ry(θ) = Rz(π/2)·Rx(θ)·Rz(-π/2) as matrices, i.e. apply Rz(-π/2)
		// first in time (global phase dropped).
		b.zSpider(g.Target, -math.Pi/2)
		b.xSpider(g.Target, g.Params[0])
		b.zSpider(g.Target, math.Pi/2)
	case circuit.SWAP:
		b.swap(g.Target, g.Target2)
	case circuit.U2, circuit.U3, circuit.Custom:
		// ZYZ-decompose: U = e^{iα} Rz(β) Ry(γ) Rz(δ), applied δ first.
		_, beta, gamma, delta := decompose.ZYZ(g.Matrix())
		b.zSpider(g.Target, delta)
		b.zSpider(g.Target, -math.Pi/2)
		b.xSpider(g.Target, gamma)
		b.zSpider(g.Target, math.Pi/2)
		b.zSpider(g.Target, beta)
	default:
		return fmt.Errorf("zx: unsupported gate kind %v", g.Kind)
	}
	return nil
}

// finish attaches the output boundaries and returns the diagram with its
// input/output vertex lists.
func (b *builder) finish() (*Graph, []int, []int) {
	outs := make([]int, len(b.cur))
	for q := range b.cur {
		v := b.g.addVertex(kindBoundaryOut, 0, q)
		b.g.addEdge(b.cur[q], v, b.pending[q])
		outs[q] = v
	}
	return b.g, b.inputs, outs
}

// FromCircuit translates a circuit into a ZX-diagram (inputs, outputs
// returned as vertex ids).  Multi-controlled gates are not handled here;
// Check lowers its inputs first.
func FromCircuit(c *circuit.Circuit) (*Graph, []int, []int, error) {
	return fromCircuit(context.Background(), c)
}

// pollGates is how many gates the translation adds between context polls.
const pollGates = 256

// fromCircuit is FromCircuit polling ctx every pollGates gates; a
// cancellation returns ctx.Err().
func fromCircuit(ctx context.Context, c *circuit.Circuit) (*Graph, []int, []int, error) {
	b := newBuilder(c.N)
	for i, g := range c.Gates {
		if i%pollGates == 0 && ctx.Err() != nil {
			return nil, nil, nil, ctx.Err()
		}
		if err := b.gate(g); err != nil {
			return nil, nil, nil, err
		}
	}
	g, ins, outs := b.finish()
	return g, ins, outs, nil
}
