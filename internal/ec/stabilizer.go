package ec

import (
	"fmt"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/sim"
	"qcec/internal/stab"
)

// This file is the StrategyStabilizer backend: the polynomial-time Clifford
// checker (internal/stab) dressed in the complete routine's Result shape and
// resource contracts, so the portfolio, the CLI and the server route to it
// exactly like any DD strategy.  Its one DD run, the strict-phase anchor,
// goes through the complete check's set-up (see check): the same lease, or
// the caller's package, deadline and guard.

// NotCliffordError reports why the stabilizer strategy declined a pair: the
// gate-set analyzer found a gate outside the Clifford set in one of the
// circuits.  It is the whole cost a non-Clifford pair pays on this path —
// one early-exit scan, no DD package, no tableau.
type NotCliffordError struct {
	Circuit   string // "G" or "G'"
	GateIndex int
	Gate      string
}

// Error formats the routing refusal.
func (e *NotCliffordError) Error() string {
	return fmt.Sprintf("stabilizer: %s gate %d (%s) is not Clifford", e.Circuit, e.GateIndex, e.Gate)
}

// tableau runs the stabilizer strategy's tableau check, recording its
// verdict in c.result, and reports whether that verdict still needs the
// strict-phase anchor (anchorPhase): a pair proven equal up to a global
// scalar, in the strict convention.  The analyzer's angle snap and the
// anchor's agreement bound both derive from Options.Tolerance.
func (c *checker) tableau(g1, g2 *circuit.Circuit) bool {
	res := &c.result
	// One-pass gate-set scan; a non-Clifford gate ends the check here.
	angleTol := circuit.CliffordAngleTolerance(c.opts.Tolerance)
	var ops [2][]circuit.CliffordGate
	for i, g := range []*circuit.Circuit{g1, g2} {
		var bad int
		var ok bool
		if ops[i], bad, ok = circuit.LowerClifford(g, angleTol); !ok {
			res.Verdict = TimedOut
			res.Cause = CauseError
			res.Err = &NotCliffordError{Circuit: [2]string{"G", "G'"}[i], GateIndex: bad, Gate: g.Gates[bad].String()}
			res.Reason = res.Err.Error()
			return false
		}
	}

	sres := stab.Check(c.opts.Context, c.deadline, g1.N, ops[0], ops[1], c.opts.OutputPerm)
	res.GatesApplied = sres.GatesApplied
	switch sres.Verdict {
	case stab.Aborted:
		res.Verdict = TimedOut
		if ctx := c.opts.Context; ctx != nil && ctx.Err() != nil {
			res.Cause, res.Reason, res.Err = cancelCause(ctx)
		} else {
			res.Cause = CauseTimeout
			res.Reason = fmt.Sprintf("timeout %s exceeded", c.opts.Timeout)
		}
		return false
	case stab.NotEquivalent:
		res.Verdict = NotEquivalent
		res.Counterexample = sres.Counterexample
		res.Reason = fmt.Sprintf("%d of %d generators moved", sres.Mismatches, 2*g1.N)
		return false
	}
	// All 2n generators fixed: the circuits are equal up to a global scalar.
	if c.opts.UpToGlobalPhase {
		res.Verdict = EquivalentUpToGlobalPhase
		return false
	}
	return true
}

// anchorPhase resolves the residual global scalar in the strict phase
// convention: the tableau has proven U' = e^{iφ}·P·U (P the declared output
// relabeling), so a single basis-state comparison of both circuits
// (sim.Pair) pins φ — <0|P†U'|0> / <0|U|0> — with one overlap, judged
// strictly by cn.StatesAgree.  This is the only place the stabilizer
// strategy touches a DD package, and only on pairs already proven
// equivalent up to phase; it runs on the check's package, under the
// check's deadline and guard.
func (c *checker) anchorPhase(g1, g2 *circuit.Circuit) {
	pair := sim.NewPair(c.p, sim.Prepare(g1), sim.Prepare(g2), c.opts.OutputPerm, c.pinned...)
	if cn.StatesAgree(pair.Compare(0).Overlap, false, c.agreeTol) {
		c.result.Verdict = Equivalent
		return
	}
	c.result.Verdict = NotEquivalent
	c.result.Reason = "differ by a global phase"
	ce := uint64(0)
	c.result.Counterexample = &ce
}
