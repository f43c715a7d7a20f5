package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/ec"
)

// Finishing by simulation.  Simulating all 2^n basis columns of a pair and
// finding every column pair identical proves U = U' (paper Sec. III-B), and
// on small registers it is often cheaper than the complete check: a
// reversible netlist keeps a basis state close to a basis state, while the
// complete check's miter U'·U† carries all 2^n columns at once.  So when
// the R random stimuli agree, the flow still starts the complete check, but
// as a probe that yields once the columns not yet simulated are predicted
// to be cheaper than the rest of the check, and then simulates those
// columns.
//
// Both sides are priced in DD lookups (dd.Stats.Lookups), not wall time: a
// lookup count repeats exactly for a given package history, so the choice
// does not flip with machine load or timer resolution, and it needs no
// constant tuned to some machine.  The rule has no other input than the
// request: the stage's mean lookups per column, the columns left, and the
// probe's own spend and progress.

// coveredColumns returns the distinct basis states among stimuli, sorted:
// the columns the simulation stage covers.  Only caller-supplied stimuli
// can repeat.
func coveredColumns(stimuli []uint64) []uint64 {
	cols := slices.Clone(stimuli)
	slices.Sort(cols)
	return slices.Compact(cols)
}

// finishEligible reports whether the complete check may yield to the
// remaining columns.  Only a strict-phase check qualifies (simulating every
// column proves nothing up to a phase, since each column may carry its
// own), and only while every column simulated so far was identical (a
// column that agrees only within the overlap tolerance already rules out
// the proof).  SkipEC, FidelityThreshold, an exhaustive proof and a
// Clifford pair (the tableau is polynomial) never reach the DD complete
// check.  Basis indices are uint64, so the register must leave room to
// count 2^n.
func finishEligible(n int, opts Options, run simRun) bool {
	return !opts.UpToGlobalPhase && run.identical && run.n > 0 && n < 63
}

// yieldRule returns the probe's ec.Options.Progress.  colCost is the
// simulation stage's mean lookups per column (W_col), rest the predicted
// lookups of the columns not yet covered, colCost·(2^n − covered).  Once
// the probe has spent at least one column's worth, it yields at the first
// gate where its spend, extrapolated linearly over the gates still to
// apply, exceeds rest.  The spend is gate work only: the check's set-up,
// such as an output permutation's target DD, is a one-off cost that
// ec.Progress leaves out.  Both estimates lean towards finishing the complete
// check: the stage's first columns run on cold compute tables, so later
// columns cost less than their mean, and the miter grows along the check,
// so the linear extrapolation undershoots.
func yieldRule(n int, run simRun, covered int) func(ec.Progress) bool {
	colCost := float64(run.dd.Lookups()) / float64(run.n)
	rest := colCost * (math.Ldexp(1, n) - float64(covered))
	return func(p ec.Progress) bool {
		spent := float64(p.Lookups)
		return spent >= colCost && spent*float64(p.Total-p.Applied) > rest*float64(p.Applied)
	}
}

// columnChunk bounds the remaining columns materialized at a time, so a
// large register's columns never sit in memory at once.
const columnChunk = 1 << 12

// finishBySimulation runs the columns the simulation stage has not covered
// (every basis state but cols) after the probe yielded with result probe,
// and decides the report from them.  The columns run on the stage's
// runners, whose packages still hold the stimuli's compute tables, under
// the complete check's deadline (installed on the packages too, so it
// stops a long column inside DD operations) and the flow's context;
// report.EC keeps the probe's result (its Runtime and DD), while SimTime,
// NumSims and DD include the extra columns.  Every column identical proves
// equivalence; a failing one is an ordinary simulation counterexample.  A
// column that agrees only within the overlap tolerance withdraws the
// proof, and the complete check decides after all, on worker 0's package,
// in what is left of its deadline.
func (r *Report) finishBySimulation(st *stage, g1, g2 *circuit.Circuit, cols []uint64, deadline time.Time, run simRun, probe ec.Result) {
	r.EC = &probe
	opts := st.opts
	st.deadline = deadline
	simStart := time.Now()
	run.add(st.simulateRemaining(cols))
	r.SimTime += time.Since(simStart)
	r.setSim(run)
	switch {
	case run.ce != nil:
		r.decideBySim(run.ce)
	case run.err != nil:
		r.Err = run.err
		r.Verdict = ProbablyEquivalent
	case cancelled(opts):
		r.Cancelled = true
		r.Verdict = ProbablyEquivalent
	case st.pastDeadline():
		// The complete check's deadline expired: the outcome an ec timeout
		// gives.
		r.Verdict = ProbablyEquivalent
		r.EC.Cause = ec.CauseTimeout
		r.EC.Reason = fmt.Sprintf("timeout %s exceeded (%s)", opts.ECTimeout, probe.Reason)
	case run.identical:
		r.Exhaustive = true
		r.decideBySim(nil)
	default:
		r.Exhaustive = true
		ecOpts := opts.ECOptions()
		if !deadline.IsZero() {
			// At least 1ns: a zero Timeout would mean no limit.
			ecOpts.Timeout = max(time.Until(deadline), time.Nanosecond)
		}
		res := st.check(g1, g2, ecOpts)
		res.Runtime += probe.Runtime
		res.DD.Add(probe.DD)
		r.decideByEC(res)
	}
}

// simulateRemaining simulates the basis states of [0, 2^n) not in cols
// (sorted) in index order, columnChunk at a time, until a counterexample, a
// worker fault, the end of the flow's context or the stage's deadline.
func (st *stage) simulateRemaining(cols []uint64) simRun {
	total := uint64(1) << uint(st.prog1.Qubits())
	run := newSimRun()
	chunk := make([]uint64, 0, min(total, columnChunk))
	for x := uint64(0); x < total && !st.stopped(); {
		chunk = chunk[:0]
		for ; x < total && len(chunk) < cap(chunk); x++ {
			if len(cols) > 0 && cols[0] == x {
				cols = cols[1:]
				continue
			}
			chunk = append(chunk, x)
		}
		run.add(st.run(chunk))
		if run.ce != nil || run.err != nil {
			break
		}
	}
	return run
}
