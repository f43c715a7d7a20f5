package sim

import (
	"qcec/internal/circuit"
	"qcec/internal/dd"
)

// ApplyGateLegacy applies a single gate by building its full-register
// matrix DD and running the generic matrix-vector product: the reference
// path the direct kernel (ApplyGate, Simulator runs) is checked against.
func ApplyGateLegacy(p *dd.Package, state dd.VEdge, g circuit.Gate) dd.VEdge {
	if g.Kind == circuit.SWAP {
		for _, cx := range swapAsCXs(g) {
			state = ApplyGateLegacy(p, state, cx)
		}
		return state
	}
	return p.MulMV(p.GateDD(g.Matrix(), g.Target, ToDDControls(g.Controls)), state)
}

// runLegacy simulates c on |input> through ApplyGateLegacy with the same
// collection safe points as a Simulator run, returning the final state and
// the number of circuit gates applied.
func runLegacy(p *dd.Package, c *circuit.Circuit, input uint64) (dd.VEdge, int64) {
	state := p.BasisState(input)
	var applied int64
	for _, g := range c.Gates {
		state = ApplyGateLegacy(p, state, g)
		applied++
		p.MaybeGC([]dd.VEdge{state}, nil)
	}
	return state, applied
}
