// Package ec implements complete, decision-diagram based equivalence
// checking of quantum circuits — the "state-of-the-art equivalence checking
// routine" slot of the paper's proposed flow (Fig. 3).
//
// Two circuits G and G' are equivalent iff U'·U† equals the identity (up to
// global phase, and up to an output permutation when the compilation flow
// relabels qubits instead of un-swapping them).  The product U'·U† is built
// gate by gate on a DD package; the order in which gates from the two
// circuits are consumed is the checker's main degree of freedom
// (paper ref [22]).  Construction builds U and U' independently and
// compares them — the textbook baseline ("construct and compare the
// complete functionality").  Every other DD strategy alternates between the
// sides, and all but one fix the order up front as a cumulative schedule,
// where sched[i] gates of G' are applied before inverted gate i of G (see
// schedule):
//
//   - Sequential: all gates of G', then all inverted gates of G.
//   - Proportional: interleave the two sides in proportion to their gate
//     counts, keeping the accumulated product close to the identity (small)
//     whenever the circuits are in fact equivalent.
//   - GateCost: one inverted gate of G, then as many gates of G' as that
//     gate lowered to, per a per-gate cost profile — either emitted
//     natively by internal/decompose and internal/mapping or estimated from
//     a static per-kind cost table (the compilation-flow scheme of
//     Burgholzer, Raymond & Wille 2020).
//
// Lookahead is the one strategy that chooses as it goes: at each step it
// applies whichever side's next gate yields the smaller intermediate DD.
//
// All strategies support cooperative timeouts and node budgets, making
// "Timeout" a first-class verdict exactly as in the paper's evaluation.
// Every DD run here — the complete check, and the stabilizer strategy's
// phase anchor — goes through one set-up (see check): it runs on a package
// leased from Options.Pool (dd.Pool.Lease), which wires it to
// Options.Context and to any memory watchdog the context carries, and
// recovers its panics with one guard (see guard).  CheckOn runs it on a
// package its caller already holds instead: the flow's simulation stage
// hands over its own, so one package serves a whole check.
package ec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/dd"
	"qcec/internal/resource"
	"qcec/internal/sim"
)

// Strategy selects the gate-consumption order of the checker.
type Strategy int

// Available strategies.  Proportional is the recommended scheme and the
// zero value, so it is what both ec.Options and core.Options default to;
// Construction is the "build and compare the complete functionality"
// baseline the paper measures as t_ec.
const (
	Proportional Strategy = iota
	Construction
	Sequential
	Lookahead
	// StrategyGateCost schedules the two sides by a per-gate cost profile:
	// undoing gate i of G is followed by the f(i) gates of G' it lowered to,
	// keeping the accumulated product near the identity through aggressive
	// compilation.  The profile comes from Options.CostProfile when the pair
	// carries provenance (decompose.WithProfile, mapping.Result.CostProfile)
	// and is otherwise estimated from a static per-kind cost table
	// (EstimateCostProfile).
	StrategyGateCost
	// StrategyStabilizer routes the pair to the polynomial-time tableau
	// checker (internal/stab) instead of any DD scheme.  It is complete on
	// Clifford-only pairs and declines everything else with a typed
	// *NotCliffordError (Cause == CauseError), leaving universal gate sets
	// to the DD strategies.
	StrategyStabilizer
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Construction:
		return "construction"
	case Sequential:
		return "sequential"
	case Proportional:
		return "proportional"
	case Lookahead:
		return "lookahead"
	case StrategyGateCost:
		return "gate-cost"
	case StrategyStabilizer:
		return "stabilizer"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy maps a strategy name, as the CLIs' -strategy flags and the
// server's options.strategy spell it, to its Strategy.  The empty string
// selects the default, Proportional; the gate-cost scheme answers to
// "gate-cost", "gatecost", "gate_cost" and "compilation_flow".
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "proportional":
		return Proportional, nil
	case "construction":
		return Construction, nil
	case "sequential":
		return Sequential, nil
	case "lookahead":
		return Lookahead, nil
	case "gate-cost", "gatecost", "gate_cost", "compilation_flow":
		return StrategyGateCost, nil
	case "stabilizer":
		return StrategyStabilizer, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want construction|sequential|proportional|lookahead|gate_cost|stabilizer)", name)
}

// Verdict is the outcome of a complete equivalence check.
type Verdict int

// Possible verdicts.  TimedOut means neither equivalence nor a
// counterexample was established within the resource budget — the outcome
// the paper's simulation stage exists to make rare — or before
// Options.Progress yielded the check (Cause says which).
const (
	Equivalent Verdict = iota
	EquivalentUpToGlobalPhase
	NotEquivalent
	TimedOut
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case EquivalentUpToGlobalPhase:
		return "equivalent up to global phase"
	case NotEquivalent:
		return "not equivalent"
	case TimedOut:
		return "timeout"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Options configures a check.
type Options struct {
	// Strategy selects the gate alternation scheme (default Proportional).
	Strategy Strategy
	// Context, when non-nil, cancels the check cooperatively: the gate
	// application loops poll ctx.Err() between gates, and the leased DD
	// package polls it inside long-running operations (see dd.Pool.Lease).
	// A cancelled check returns TimedOut with Cause == CauseCancelled.
	// This is how the prover portfolio stops losing provers promptly.  A
	// memory watchdog on the context (core.Check starts one for
	// core.Options.MemSoftLimit/MemHardLimit) forces the package to collect
	// under its soft limit, and its hard limit stops the check with
	// CauseMemLimit.
	Context context.Context
	// Timeout bounds the wall-clock time of the check; zero means no limit.
	Timeout time.Duration
	// NodeLimit aborts the check when the DD package exceeds this many live
	// nodes; zero (or negative) means no limit.  Exceeding it yields
	// TimedOut.  It bounds the miter: the stabilizer strategy's phase
	// anchor, one basis column, runs without it.
	NodeLimit int
	// UpToGlobalPhase accepts a unit-magnitude scalar factor between the two
	// circuits (decompositions routinely introduce one).
	UpToGlobalPhase bool
	// OutputPerm declares that output wire OutputPerm[q] of G' carries what
	// wire q of G carries (routers that relabel instead of un-swapping).
	// nil means the identity assignment.
	OutputPerm []int
	// Tolerance overrides the DD package weight tolerance (0 =
	// cn.DefaultTolerance); the verdict bounds derive from it through
	// cn.AgreementTolerance.
	Tolerance float64
	// CostProfile, for StrategyGateCost, gives the number of gates of g2
	// that source gate i of g1 lowered to — the native profile emitted by
	// decompose.WithProfile / mapping.Map, composed with ComposeProfiles
	// across stages.  Its length must equal len(g1.Gates) and entries must
	// be non-negative; a nil profile makes the checker fall back to the
	// static per-kind estimate (EstimateCostProfile).  Other strategies
	// ignore it.
	CostProfile []int
	// Progress, when non-nil, is called after every gate application of a
	// DD strategy (the stabilizer strategy applies none); returning true
	// stops the check with Verdict TimedOut and Cause CauseYielded.
	// core.Check passes one to run the complete check as a probe that
	// yields once simulating the remaining basis columns is predicted to
	// cost less than finishing it.
	Progress func(Progress) bool
	// Pool, when non-nil, supplies a warm DD package (dd.Pool.Lease)
	// instead of a fresh one, and receives it back reset when the check
	// ends cleanly.  Packages that survived a genuine panic are dropped,
	// not returned.  Verdicts are identical either way.
	Pool *dd.Pool
}

// Progress is a DD check's state after one gate application, as
// Options.Progress sees it.
type Progress struct {
	Applied int    // gate applications so far (Result.GatesApplied)
	Total   int    // gate applications of the whole check, |G|+|G'|
	Lookups uint64 // the gates' DD work so far (dd.Stats.Lookups), set-up excluded
}

// DegradedNodeLimit returns the node budget of a conservative re-run after
// a crash or transient failure: an unbounded limit (zero or negative)
// becomes 2^20 live nodes and a limit above 4096 is halved, so the retry
// cannot repeat a resource blow-up.  core.Options.Degraded, the one
// degraded-retry configuration, takes its budget from it.
func DegradedNodeLimit(limit int) int {
	switch {
	case limit <= 0:
		return 1 << 20
	case limit > 4096:
		return limit / 2
	}
	return limit
}

// StopCause identifies the resource bound that ended an inconclusive check.
type StopCause int

// Causes for a TimedOut verdict.  CauseNone means the check ran to
// completion (any other verdict).
const (
	CauseNone StopCause = iota
	CauseTimeout
	CauseNodeLimit
	CauseCancelled
	// CauseMemLimit: the memory watchdog's hard limit cancelled the check
	// (Result.Err carries the *resource.MemoryLimitError).
	CauseMemLimit
	// CauseError: the check died on a recovered panic (Result.Err carries
	// the *resource.PanicError) — reachable from degenerate input such as
	// non-finite gate parameters.
	CauseError
	// CauseYielded: Options.Progress stopped the check; no resource bound
	// expired.  core.Check's probe yields this way to simulating the
	// remaining basis columns.
	CauseYielded
)

// String returns the cause name.
func (c StopCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseTimeout:
		return "timeout"
	case CauseNodeLimit:
		return "node-limit"
	case CauseCancelled:
		return "cancelled"
	case CauseMemLimit:
		return "mem-limit"
	case CauseError:
		return "error"
	case CauseYielded:
		return "yielded"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Result reports the outcome and cost of a check.
type Result struct {
	Verdict      Verdict
	Runtime      time.Duration
	GatesApplied int
	// ProbeMuls counts the speculative matrix multiplications the Lookahead
	// scheme performs to size up its two candidates; they are real DD work
	// that GatesApplied alone would hide from scheme comparisons.
	ProbeMuls int
	// PeakNodes is the largest matrix-node population seen between gate
	// applications: the live miter plus garbage not yet collected.  The
	// package collects once the population reaches the larger of the
	// matrix floor (dd.DefaultGCThreshold) and twice the matrix nodes that
	// survived its last collection, so a check whose live DD stays small
	// peaks near the floor, and only a live set above half the floor moves
	// the peak.  Vector nodes are not counted: the check builds none
	// before its counterexample search, and on a package that a simulation
	// used before (CheckOn) they are that simulation's.  FinalNodes is the
	// matrix-node population when the check ends.
	PeakNodes      int
	FinalNodes     int
	Strategy       Strategy
	Counterexample *uint64   // basis state whose columns differ, if found
	Cause          StopCause // what stopped a TimedOut check
	Reason         string    // human-readable cause for TimedOut
	// Err carries the typed failure behind CauseError (*resource.PanicError)
	// or CauseMemLimit (*resource.MemoryLimitError); nil otherwise.
	Err error
	// DD holds the check's own DD-package statistics (gate-registry and
	// compute-table hit rates, unique-table activity, GC reclaims): on a
	// package the caller holds (CheckOn), only the work since the check
	// started.
	DD dd.Stats
}

// Equivalent reports whether the verdict establishes equivalence under the
// requested phase convention.
func (r Result) Equivalent() bool {
	return r.Verdict == Equivalent || r.Verdict == EquivalentUpToGlobalPhase
}

type checker struct {
	p        *dd.Package
	opts     Options
	deadline time.Time
	gates    int // |G|+|G'|, a Progress's Total
	// setUp is the lookups before the first gate (the identity and the
	// target), left out of a Progress so a yield rule sees gate work only.
	setUp uint64
	// agreeTol is the classification tolerance derived from the DD weight
	// tolerance (cn.AgreementTolerance); it bounds both the up-to-phase
	// magnitude band and the counterexample fidelity threshold.
	agreeTol float64
	// pinned are the caller's matrix DDs that every collection keeps
	// (CheckOn); roots is the collection roots' reused buffer.
	pinned []dd.MEdge
	roots  []dd.MEdge
	result Result
}

// cancelCause classifies a context cancellation: a *resource.MemoryLimitError
// cause means the memory watchdog tripped; anything else is an ordinary
// cancellation.
func cancelCause(ctx context.Context) (StopCause, string, error) {
	cause := context.Cause(ctx)
	var mle *resource.MemoryLimitError
	if errors.As(cause, &mle) {
		return CauseMemLimit, mle.Error(), mle
	}
	return CauseCancelled, fmt.Sprintf("cancelled: %v", ctx.Err()), nil
}

func (c *checker) expired() bool {
	if ctx := c.opts.Context; ctx != nil && ctx.Err() != nil {
		c.result.Cause, c.result.Reason, c.result.Err = cancelCause(ctx)
		return true
	}
	if c.opts.NodeLimit > 0 && c.p.MatrixNodeCount() > c.opts.NodeLimit {
		c.result.Cause = CauseNodeLimit
		c.result.Reason = fmt.Sprintf("node limit %d exceeded", c.opts.NodeLimit)
		return true
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.result.Cause = CauseTimeout
		c.result.Reason = fmt.Sprintf("timeout %s exceeded", c.opts.Timeout)
		return true
	}
	return false
}

// stopped polls after a gate application: the resource bounds (expired),
// then Options.Progress, which may yield the check.
func (c *checker) stopped() bool {
	if c.expired() {
		return true
	}
	if c.opts.Progress == nil || !c.opts.Progress(Progress{Applied: c.result.GatesApplied, Total: c.gates, Lookups: c.p.Lookups() - c.setUp}) {
		return false
	}
	c.result.Cause = CauseYielded
	c.result.Reason = fmt.Sprintf("yielded to simulation after %d of %d gates", c.result.GatesApplied, c.gates)
	return true
}

func (c *checker) note() {
	if n := c.p.MatrixNodeCount(); n > c.result.PeakNodes {
		c.result.PeakNodes = n
	}
}

// maybeGC is the check's collection safe point: it keeps the given edges
// and the caller's pinned matrices.
func (c *checker) maybeGC(live ...dd.MEdge) {
	c.roots = append(append(c.roots[:0], live...), c.pinned...)
	c.p.MaybeGC(nil, c.roots)
}

// Check decides the equivalence of g1 and g2 on a package leased from
// opts.Pool and released when the check ends.  The stabilizer strategy
// leases one only when its strict-phase anchor runs.
func Check(g1, g2 *circuit.Circuit, opts Options) Result {
	res, _ := check(nil, g1, g2, opts, nil)
	return res
}

// CheckOn is Check on p, a package for g1's register that the caller holds
// (its lease wired to opts.Context) and keeps: opts.Pool is not used, and
// the caller releases p afterwards, as dropped (dd.Package.Release(true))
// when fault reports a genuine panic recovered on it.  The check leaves p
// without a node limit or deadline, and every collection it runs keeps
// pinned, the caller's matrix DDs on p.  Result.DD counts only the check's
// work, and its node counts measure the matrix nodes alone (a miter's, or
// for the stabilizer strategy's anchor, which simulates one column, only
// an un-permutation's), so the dead vectors of a simulation run on p
// before are neither counted nor, until the miter's own population reaches
// its collection trigger, collected.  A register-size mismatch, and a
// stabilizer check that needs no anchor, leave p untouched.
func CheckOn(p *dd.Package, g1, g2 *circuit.Circuit, opts Options, pinned []dd.MEdge) (res Result, fault bool) {
	return check(p, g1, g2, opts, pinned)
}

// check is CheckOn on p, or, with p nil, on a package leased from opts.Pool
// for the check's DD run and released after it.  Both entry points share
// its one set-up: the deadline, the node limit, the panic guard and the
// statistics.
func check(p *dd.Package, g1, g2 *circuit.Circuit, opts Options, pinned []dd.MEdge) (res Result, fault bool) {
	start := time.Now()
	if g1.N != g2.N {
		return Result{
			Verdict:  NotEquivalent,
			Strategy: opts.Strategy,
			Reason:   fmt.Sprintf("register sizes differ (%d vs %d)", g1.N, g2.N),
		}, false
	}
	c := &checker{opts: opts, pinned: pinned, gates: len(g1.Gates) + len(g2.Gates), agreeTol: cn.AgreementTolerance(opts.Tolerance)}
	c.result.Strategy = opts.Strategy
	if opts.Timeout > 0 {
		c.deadline = start.Add(opts.Timeout)
	}
	stabilizer := opts.Strategy == StrategyStabilizer
	if stabilizer && !c.tableau(g1, g2) {
		c.result.Runtime = time.Since(start)
		return c.result, false
	}
	if p == nil {
		p = opts.Pool.Lease(opts.Context, g1.N, opts.Tolerance)
		defer func() { p.Release(fault) }()
	}
	c.p = p
	before := p.Snapshot()
	if opts.Timeout > 0 {
		// The same deadline aborts inside DD operations: a single huge
		// multiplication would otherwise run far past any per-gate check.
		p.SetDeadline(c.deadline)
	}
	if opts.NodeLimit > 0 && !stabilizer {
		// The node limit bounds the miter.  The anchor builds vectors,
		// which on a held package share their kind's population with a
		// simulation's dead vectors.
		p.SetNodeLimit(opts.NodeLimit)
	}
	func() {
		defer guard(opts.Context, "ec "+opts.Strategy.String(), &c.result, &fault)
		switch opts.Strategy {
		case StrategyStabilizer:
			c.anchorPhase(g1, g2)
		case Construction:
			c.runConstruction(g1, g2)
		default:
			c.runAlternating(g1, g2)
		}
	}()
	p.SetNodeLimit(0)
	p.SetDeadline(time.Time{})
	c.result.Runtime = time.Since(start)
	c.result.FinalNodes = p.MatrixNodeCount()
	c.result.PeakNodes = max(c.result.PeakNodes, c.result.FinalNodes)
	c.result.DD = p.Snapshot().Since(before)
	return c.result, fault
}

// guard is the panic guard of the DD run of every check: the complete
// check and the stabilizer's phase anchor.  Deferred directly, it turns a
// *dd.LimitError into a TimedOut verdict with the limit's cause, and any
// other panic (degenerate input, injected chaos, a bug) into CauseError
// with a *resource.PanicError instead of a crash across the prover
// boundary.  It reports the latter in *fault: the package that panicked
// must not go back to its pool.
func guard(ctx context.Context, op string, res *Result, fault *bool) {
	r := recover()
	if r == nil {
		return
	}
	res.Verdict = TimedOut
	le, ok := r.(*dd.LimitError)
	switch {
	case !ok:
		perr := resource.NewPanicError(op, r)
		*fault = true
		res.Cause, res.Reason, res.Err = CauseError, perr.Error(), perr
	case le.Cancelled:
		// Only the lease's hook on ctx raises a cancellation.
		res.Cause, res.Reason, res.Err = cancelCause(ctx)
	case le.Deadline:
		res.Cause, res.Reason = CauseTimeout, le.Error()
	default:
		res.Cause, res.Reason = CauseNodeLimit, le.Error()
	}
}

// target returns the matrix the accumulated product U'·U† must equal for the
// circuits to count as equivalent: the identity, or the declared output
// permutation.
func (c *checker) target() dd.MEdge {
	if c.opts.OutputPerm == nil {
		return c.p.Identity()
	}
	return sim.PermutationDD(c.p, c.opts.OutputPerm)
}

func (c *checker) classify(m, target dd.MEdge) {
	if m.N == target.N {
		if m.W == target.W {
			c.result.Verdict = Equivalent
			return
		}
		mag := m.W.Abs()
		if mag > 1-c.agreeTol && mag < 1+c.agreeTol {
			if c.opts.UpToGlobalPhase {
				c.result.Verdict = EquivalentUpToGlobalPhase
				return
			}
			c.result.Verdict = NotEquivalent
			c.result.Reason = "differ by a global phase"
			ce := uint64(0)
			c.result.Counterexample = &ce
			return
		}
	}
	c.result.Verdict = NotEquivalent
	// The node limit bounds the miter, which is complete now; the search
	// builds vectors, which on a held package share their kind's population
	// with a simulation's dead vectors.
	c.p.SetNodeLimit(0)
	if ce, ok := findCounterexample(c.p, m, target, c.agreeTol); ok {
		c.result.Counterexample = &ce
	}
}

// runConstruction builds both unitaries independently and compares them.
func (c *checker) runConstruction(g1, g2 *circuit.Circuit) {
	u1 := c.p.Identity()
	c.setUp = c.p.Lookups()
	for _, g := range g1.Gates {
		u1 = c.p.MulMM(sim.GateDD(c.p, g), u1)
		c.result.GatesApplied++
		c.note()
		if c.stopped() {
			c.result.Verdict = TimedOut
			return
		}
		c.maybeGC(u1)
	}
	u2 := c.p.Identity()
	for _, g := range g2.Gates {
		u2 = c.p.MulMM(sim.GateDD(c.p, g), u2)
		c.result.GatesApplied++
		c.note()
		if c.stopped() {
			c.result.Verdict = TimedOut
			return
		}
		c.maybeGC(u1, u2)
	}
	// Compare U = R·U' where R undoes the output permutation, by checking
	// U'·U† against the permutation target exactly like the alternating
	// schemes do.
	m := c.p.MulMM(u2, c.p.ConjugateTranspose(u1))
	c.note()
	c.classify(m, c.target())
}

// runAlternating consumes gates of G' (left multiplications) and inverted
// gates of G (right multiplications), producing U'·U†.  A schedule strategy
// applies the next gate of G' while fewer than sched[i] of them precede
// inverted gate i of G; Lookahead (no schedule) probes both sides whenever
// both have gates left.  Every application is followed by the budget and
// progress polls and a collection safe point, so even a long chunk of one
// side is bounded.
func (c *checker) runAlternating(g1, g2 *circuit.Circuit) {
	target := c.target()
	m := c.p.Identity()
	c.setUp = c.p.Lookups()
	sched := schedule(c.opts.Strategy, g1, g2, c.opts.CostProfile)
	n1, n2 := len(g1.Gates), len(g2.Gates)
	i, j := 0, 0 // i indexes g1 (right side), j indexes g2 (left side)
	for i < n1 || j < n2 {
		switch {
		case i == n1 || (sched != nil && j < sched[i]):
			m = c.p.MulMM(sim.GateDD(c.p, g2.Gates[j]), m)
			j++
		case j == n2 || sched != nil:
			m = c.p.MulMM(m, sim.GateDD(c.p, g1.Gates[i].Inverse()))
			i++
		default:
			left := c.p.MulMM(sim.GateDD(c.p, g2.Gates[j]), m)
			c.result.ProbeMuls++
			// A probe is a full matrix product; poll the budgets between
			// the two so a blown-up candidate aborts before the second
			// probe repeats the damage.
			c.note()
			if c.expired() {
				c.result.Verdict = TimedOut
				return
			}
			right := c.p.MulMM(m, sim.GateDD(c.p, g1.Gates[i].Inverse()))
			c.result.ProbeMuls++
			if c.p.MSize(left) <= c.p.MSize(right) {
				m = left
				j++
			} else {
				m = right
				i++
			}
		}
		c.result.GatesApplied++
		c.note()
		if c.stopped() {
			c.result.Verdict = TimedOut
			return
		}
		c.maybeGC(m, target)
	}
	c.classify(m, target)
}

// schedule returns the cumulative schedule of a schedule strategy: sched[i]
// gates of g2 are applied before inverted gate i of g1, with sched
// non-decreasing and at most len(g2.Gates).  It returns nil for Lookahead,
// which chooses at every step instead.
func schedule(s Strategy, g1, g2 *circuit.Circuit, profile []int) []int {
	n1, n2 := len(g1.Gates), len(g2.Gates)
	switch s {
	case Sequential:
		return sequentialSchedule(n1, n2)
	case Proportional:
		return proportionalSchedule(n1, n2)
	case StrategyGateCost:
		return gateCostSchedule(g1, g2, profile)
	case Lookahead:
		return nil
	}
	panic(fmt.Sprintf("ec: unknown strategy %v", s))
}

// sequentialSchedule applies all n2 gates of G' before the first inverted
// gate of G.
func sequentialSchedule(n1, n2 int) []int {
	sched := make([]int, n1)
	for i := range sched {
		sched[i] = n2
	}
	return sched
}

// proportionalSchedule interleaves the sides in proportion to their gate
// counts: ceil(n2/n1) gates of G' before each inverted gate of G when G' is
// at least as long, else one gate of G' before each run of ceil(n1/n2)
// inverted gates of G.
func proportionalSchedule(n1, n2 int) []int {
	sched := make([]int, n1)
	if n2 == 0 {
		return sched
	}
	for i := range sched {
		if n2 >= n1 {
			sched[i] = min((i+1)*((n2+n1-1)/n1), n2)
		} else {
			sched[i] = min(i/((n1+n2-1)/n2)+1, n2)
		}
	}
	return sched
}

// findCounterexample searches for a basis state |i> on which the accumulated
// product m and the target disagree, i.e. an input on which the two circuits
// produce different outputs.  Because errors typically affect most columns
// (paper Sec. IV-A), a short deterministic-then-random probe almost always
// succeeds.  A column counts as disagreeing when its fidelity falls below
// 1-tol, with tol derived from the package weight tolerance
// (cn.AgreementTolerance) so a loose package does not manufacture witnesses
// out of its own rounding.
func findCounterexample(p *dd.Package, m, target dd.MEdge, tol float64) (uint64, bool) {
	n := p.Qubits()
	var limit uint64
	if n >= 16 {
		limit = 1 << 16
	} else {
		limit = 1 << uint(n)
	}
	probe := func(i uint64) bool {
		col := p.MulMV(m, p.BasisState(i))
		ref := p.MulMV(target, p.BasisState(i))
		f := p.Fidelity(col, ref)
		return f < 1-tol
	}
	for i := uint64(0); i < 64 && i < limit; i++ {
		if probe(i) {
			return i, true
		}
	}
	rng := rand.New(rand.NewSource(0x5EED))
	var mask uint64
	if n >= 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << uint(n)) - 1
	}
	for t := 0; t < 256; t++ {
		i := rng.Uint64() & mask
		if probe(i) {
			return i, true
		}
	}
	return 0, false
}
