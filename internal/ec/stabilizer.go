package ec

import (
	"fmt"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/sim"
	"qcec/internal/stab"
)

// This file is the StrategyStabilizer backend: the polynomial-time Clifford
// checker (internal/stab) dressed in the complete routine's Result shape and
// resource contracts, so the portfolio, the CLI and the server route to it
// exactly like any DD strategy.  Its one DD package, for the strict-phase
// anchor, is leased and guarded exactly like the complete check's.

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

// checkStabilizer runs the tableau fast path.  The analyzer's angle snap and
// the phase anchor's agreement bound both derive from opts.Tolerance.
func checkStabilizer(g1, g2 *circuit.Circuit, opts Options) Result {
	start := time.Now()
	res := Result{Strategy: StrategyStabilizer}
	finish := func() Result {
		res.Runtime = time.Since(start)
		return res
	}

	// One-pass gate-set scan; a non-Clifford gate ends the check here.
	angleTol := circuit.CliffordAngleTolerance(opts.Tolerance)
	ops1, bad, ok := circuit.LowerClifford(g1, angleTol)
	if !ok {
		res.Verdict = TimedOut
		res.Cause = CauseError
		res.Err = &NotCliffordError{Circuit: "G", GateIndex: bad, Gate: g1.Gates[bad].String()}
		res.Reason = res.Err.Error()
		return finish()
	}
	ops2, bad, ok := circuit.LowerClifford(g2, angleTol)
	if !ok {
		res.Verdict = TimedOut
		res.Cause = CauseError
		res.Err = &NotCliffordError{Circuit: "G'", GateIndex: bad, Gate: g2.Gates[bad].String()}
		res.Reason = res.Err.Error()
		return finish()
	}

	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	sres := stab.Check(opts.Context, deadline, g1.N, ops1, ops2, opts.OutputPerm)
	res.GatesApplied = sres.GatesApplied
	switch sres.Verdict {
	case stab.Aborted:
		res.Verdict = TimedOut
		if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
			res.Cause, res.Reason, res.Err = cancelCause(ctx)
		} else {
			res.Cause = CauseTimeout
			res.Reason = fmt.Sprintf("timeout %s exceeded", opts.Timeout)
		}
		return finish()
	case stab.NotEquivalent:
		res.Verdict = NotEquivalent
		res.Counterexample = sres.Counterexample
		res.Reason = fmt.Sprintf("%d of %d generators moved", sres.Mismatches, 2*g1.N)
		return finish()
	}
	// All 2n generators fixed: the circuits are equal up to a global scalar.
	if opts.UpToGlobalPhase {
		res.Verdict = EquivalentUpToGlobalPhase
		return finish()
	}
	anchorPhase(g1, g2, opts, &res)
	return finish()
}

// anchorPhase resolves the residual global scalar in the strict phase
// convention: the tableau has proven U' = e^{iφ}·P·U (P the declared output
// relabeling), so a single basis-state comparison of both circuits
// (sim.Pair) pins φ — <0|P†U'|0> / <0|U|0> — with one overlap, judged
// strictly by cn.StatesAgree.  This is the only place the stabilizer
// strategy touches a DD package, and only on pairs already proven
// equivalent up to phase.
func anchorPhase(g1, g2 *circuit.Circuit, opts Options, res *Result) {
	p := opts.Pool.Lease(opts.Context, g1.N, opts.Tolerance)
	fault := false
	defer func() {
		res.FinalNodes = p.NodeCount()
		res.PeakNodes = max(res.PeakNodes, res.FinalNodes)
		res.DD = p.Release(fault)
	}()
	defer guard(opts.Context, "ec stabilizer anchor", res, &fault)
	if opts.Timeout > 0 {
		p.SetDeadline(time.Now().Add(opts.Timeout))
	}
	if opts.NodeLimit > 0 {
		p.SetNodeLimit(opts.NodeLimit)
	}

	pair := sim.NewPair(p, sim.Prepare(g1), sim.Prepare(g2), opts.OutputPerm)
	if cn.StatesAgree(pair.Compare(0).Overlap, false, cn.AgreementTolerance(opts.Tolerance)) {
		res.Verdict = Equivalent
		return
	}
	res.Verdict = NotEquivalent
	res.Reason = "differ by a global phase"
	ce := uint64(0)
	res.Counterexample = &ce
}
