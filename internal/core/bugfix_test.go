package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/dd"
	"qcec/internal/resource"
	"qcec/internal/sim"
)

// TestAgreementToleranceDerivation pins the one mapping from DD weight
// tolerance to every verdict bound (cn.AgreementTolerance): the historical
// 1e-6 bound at the default weight tolerance, 0 read as the default,
// proportional scaling, and the 1e-3 cap.  circuit.CliffordAngleTolerance
// must stay the same function.
func TestAgreementToleranceDerivation(t *testing.T) {
	for _, tc := range []struct{ ddTol, want float64 }{
		{1e-10, 1e-6}, // default: historical bound preserved exactly
		{0, 1e-6},     // 0 selects the default
		{1e-8, 1e-4},
		{1e-12, 1e-8},
		{1.0, 1e-3}, // capped
	} {
		if got := cn.AgreementTolerance(tc.ddTol); got != tc.want {
			t.Errorf("cn.AgreementTolerance(%g) = %g, want %g", tc.ddTol, got, tc.want)
		}
		if got := circuit.CliffordAngleTolerance(tc.ddTol); got != tc.want {
			t.Errorf("circuit.CliffordAngleTolerance(%g) = %g, want %g", tc.ddTol, got, tc.want)
		}
	}
}

// TestStatesAgreeUsesConfiguredTolerance is the near-threshold regression for
// the hard-coded tol=1e-6 bug: a single RZ(6e-6) differs from the identity
// by an overlap imaginary part of ~3e-6 — outside the default 1e-6 agreement
// bound but inside the 1e-4 bound derived from a coarser Tolerance=1e-8.
// Before the fix the second check also reported NotEquivalent because the
// configured tolerance never reached the state-agreement predicate
// (now cn.StatesAgree).
func TestStatesAgreeUsesConfiguredTolerance(t *testing.T) {
	g1 := circuit.New(1, "rz-tiny")
	g1.RZ(6e-6, 0)
	g2 := circuit.New(1, "id")

	rep := Check(g1, g2, Options{Stimuli: []uint64{0}, SkipEC: true})
	if rep.Verdict != NotEquivalent {
		t.Fatalf("default tolerance: verdict = %v, want not equivalent", rep.Verdict)
	}
	if rep.Counterexample == nil || rep.Counterexample.Input != 0 {
		t.Fatalf("default tolerance: counterexample = %+v", rep.Counterexample)
	}

	rep = Check(g1, g2, Options{Stimuli: []uint64{0}, SkipEC: true, Tolerance: 1e-8})
	if rep.Verdict != ProbablyEquivalent {
		t.Fatalf("coarse tolerance: verdict = %v, want probably equivalent", rep.Verdict)
	}
}

// TestStimulusValidation: out-of-range caller stimuli must surface as a
// typed *StimulusRangeError on the report instead of a panic inside
// dd.BasisState on a worker goroutine.
func TestStimulusValidation(t *testing.T) {
	g := ghz(3)
	rep := Check(g, g.Clone(), Options{Stimuli: []uint64{1, 8}})
	if rep.Err == nil {
		t.Fatal("out-of-range stimulus accepted")
	}
	var sre *StimulusRangeError
	if !errors.As(rep.Err, &sre) {
		t.Fatalf("Err = %v (%T), want *StimulusRangeError", rep.Err, rep.Err)
	}
	if sre.Index != 1 || sre.Stimulus != 8 || sre.Qubits != 3 {
		t.Fatalf("error fields = %+v", sre)
	}
	if rep.Verdict != ProbablyEquivalent || rep.NumSims != 0 {
		t.Fatalf("invalid options must be inconclusive with no sims: %v, %d sims",
			rep.Verdict, rep.NumSims)
	}

	// The parallel path must reject identically.
	par := Check(g, g.Clone(), Options{Stimuli: []uint64{0, 8}, Parallel: 2})
	if !errors.As(par.Err, &sre) {
		t.Fatalf("parallel Err = %v", par.Err)
	}

	// The boundary state 2^n-1 is valid.
	ok := Check(g, g.Clone(), Options{Stimuli: []uint64{7}, SkipEC: true})
	if ok.Err != nil {
		t.Fatalf("boundary stimulus rejected: %v", ok.Err)
	}
}

// TestParallelFastForwardStopsAtFirstFailure schedules two workers
// deterministically (via the package test hooks) and asserts that no
// stimulus at or past the first failing index is evaluated — the regression
// for the `>` vs `>=` fast-forward check.
//
// Layout: g2 = CX(0,1) differs from the identity exactly on inputs with
// qubit 0 set.  Stimuli [0,2,3,4,6] fail only at index 2 (value 3);
// worker 0 owns indices 0,2,4 and worker 1 owns 1,3.  Worker 1 is held in
// the eval hook until worker 0 has recorded the failure, so its check of
// index 3 provably runs after firstFail=2 is visible.
func TestParallelFastForwardStopsAtFirstFailure(t *testing.T) {
	g1 := circuit.New(3, "id")
	g1.X(2).X(2)
	g2 := circuit.New(3, "cx")
	g2.CX(0, 1)

	failSet := make(chan struct{})
	var mu sync.Mutex
	counts := make(map[int]int)
	evalHook = func(i int) {
		if i%2 == 1 { // worker 1's lane: wait for the recorded failure
			select {
			case <-failSet:
			case <-time.After(10 * time.Second):
				t.Error("failure was never recorded")
			}
		}
		mu.Lock()
		counts[i]++
		mu.Unlock()
	}
	failHook = func(int) { close(failSet) }
	defer func() { evalHook, failHook = nil, nil }()

	rep := Check(g1, g2, Options{
		Stimuli:  []uint64{0, 2, 3, 4, 6},
		Parallel: 2,
		SkipEC:   true,
	})
	if rep.Verdict != NotEquivalent {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	if rep.Counterexample == nil || rep.Counterexample.Input != 3 {
		t.Fatalf("counterexample = %+v, want input 3", rep.Counterexample)
	}
	if rep.NumSims != 3 {
		t.Fatalf("NumSims = %d, want 3 (prefix through the failure)", rep.NumSims)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("stimulus index %d evaluated %d times", i, c)
		}
		if i > 2 {
			t.Fatalf("stimulus index %d past the first failure was evaluated", i)
		}
	}
	if counts[2] != 1 {
		t.Fatal("failing stimulus was never evaluated")
	}
}

// TestParallelNumSimsExcludesCrashedWorkerGap is the regression for the
// NumSims over-count under worker crashes: with two workers, worker 0 is
// crashed (via the eval hook) before evaluating its first stimulus while
// worker 1 finds the counterexample at index 1.  The old code reported
// idx+1 = 2 completed simulations even though index 0 was never evaluated;
// the true count is 1, and the worker error must surface the gap.
func TestParallelNumSimsExcludesCrashedWorkerGap(t *testing.T) {
	g1 := circuit.New(3, "id")
	g1.X(2).X(2)
	g2 := circuit.New(3, "cx")
	g2.CX(0, 1) // differs from the identity exactly on inputs with qubit 0 set

	// Index 0 (value 2, agrees) belongs to worker 0, which panics before
	// evaluating it; index 1 (value 1, differs) belongs to worker 1.
	stimuli := []uint64{2, 1}
	evalHook = func(i int) {
		if i == 0 {
			panic("injected: worker crashed before its first stimulus")
		}
	}
	defer func() { evalHook = nil }()

	opts := Options{Stimuli: stimuli, Parallel: 2, SkipEC: true}
	st := newStage(g1, g2, opts)
	run := st.run(stimuli)
	st.release(false)
	n, ce, stats, err := run.n, run.ce, run.stats, run.err
	if ce == nil || ce.Input != 1 {
		t.Fatalf("counterexample = %+v, want input 1", ce)
	}
	if n != 1 {
		t.Fatalf("evaluated count = %d, want 1 (index 0 was never evaluated)", n)
	}
	if stats.count != 1 {
		t.Fatalf("fidelity stats over %d stimuli, want 1", stats.count)
	}
	if err == nil {
		t.Fatal("crashed worker left no error")
	}
	var perr *resource.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want a *resource.PanicError in the chain", err)
	}
	if !strings.Contains(err.Error(), "left unevaluated") {
		t.Fatalf("err = %q, want the evaluation gap surfaced", err)
	}

	// End-to-end: the report's NumSims reflects the true count, and the
	// counterexample stays definitive despite the crashed worker.
	evalHook = func(i int) {
		if i == 0 {
			panic("injected: worker crashed before its first stimulus")
		}
	}
	rep := Check(g1, g2, opts)
	if rep.Verdict != NotEquivalent {
		t.Fatalf("verdict = %v, want not equivalent", rep.Verdict)
	}
	if rep.NumSims != 1 {
		t.Fatalf("Report.NumSims = %d, want 1", rep.NumSims)
	}
}

// TestOversizedRegisterFailsTyped is the regression for a panic in a
// stimulus worker's setup: the DD package caps registers at dd.MaxQubits,
// and the lease for a larger pair panics.  Every worker runs on its own
// goroutine, so the panic must be recovered there and surface as the
// report's typed error, for one worker and for several, not crash the
// process.
func TestOversizedRegisterFailsTyped(t *testing.T) {
	g := circuit.New(dd.MaxQubits+1, "wide")
	g.H(0).CX(0, dd.MaxQubits)
	for _, parallel := range []int{0, 2} {
		rep := Check(g, g.Clone(), Options{Parallel: parallel})
		var perr *resource.PanicError
		if !errors.As(rep.Err, &perr) {
			t.Fatalf("Parallel %d: err = %v, want a *resource.PanicError", parallel, rep.Err)
		}
		if rep.Verdict != ProbablyEquivalent {
			t.Fatalf("Parallel %d: verdict = %v, want probably equivalent (inconclusive)", parallel, rep.Verdict)
		}
	}
}

// TestCompareReusedStimulusSurvivesGC guards the single-build stimulus reuse
// in simRunner.compare: the basis state is now built once and shared by both
// runs, so it must be pinned across the first run's DD collections.  A tiny
// GC threshold forces a collection after every gate; with a dangling stimulus
// edge the second run would produce garbage and the exhaustive equivalence
// proof below would fail.
func TestCompareReusedStimulusSurvivesGC(t *testing.T) {
	g := circuit.New(4, "mix")
	for q := 0; q < 4; q++ {
		g.H(q)
	}
	g.CX(0, 1).CX(1, 2).CX(2, 3)
	g.T(0).RZ(0.3, 1).Phase(0.7, 2).S(3)
	g.CX(2, 3).CX(1, 2).CX(0, 1)

	for _, parallel := range []int{1, 2} {
		rep := checkAtSimFloor(1, g, g.Clone(), Options{
			R:        1 << 4, // exhaustive: all 16 basis states
			Parallel: parallel,
			SkipEC:   true,
		})
		if rep.Err != nil {
			t.Fatalf("parallel=%d: err = %v", parallel, rep.Err)
		}
		if rep.Verdict != Equivalent || !rep.Exhaustive {
			t.Fatalf("parallel=%d: verdict = %v (exhaustive=%v), want exhaustive equivalent",
				parallel, rep.Verdict, rep.Exhaustive)
		}
		if rep.MinFidelity < 1-1e-9 {
			t.Fatalf("parallel=%d: min fidelity = %g, want 1", parallel, rep.MinFidelity)
		}
	}
}

// TestNumSimsExcludesCancelledInFlight pins the stimulus accounting under a
// mid-compare cancellation: when the *dd.LimitError panic of the lease's
// cancellation hook is absorbed between two stimuli's comparisons, NumSims
// must count only the comparisons that actually finished — never the
// in-flight one.  The old loop published the loop index instead of a
// completed counter, so an absorbed cancellation during stimulus k reported
// k+1 simulations to the harness CSVs.  The fault hook stands in for the
// cancellation deterministically: ghz(3) applies 6 gates per stimulus (3
// per circuit), so gate 8 is mid-way through the second stimulus's first
// circuit.
func TestNumSimsExcludesCancelledInFlight(t *testing.T) {
	g := ghz(3)
	var fired atomic.Bool
	sim.SetFaultHook(func(gatesApplied int64) {
		if gatesApplied == 8 && fired.CompareAndSwap(false, true) {
			panic(&dd.LimitError{Cancelled: true})
		}
	})
	defer sim.SetFaultHook(nil)

	rep := Check(g, g.Clone(), Options{Stimuli: []uint64{0, 1, 2, 3}, SkipEC: true})
	if !fired.Load() {
		t.Fatalf("cancellation never fired; test exercises nothing")
	}
	if rep.Err != nil {
		t.Fatalf("absorbed cancellation surfaced as an error: %v", rep.Err)
	}
	if rep.NumSims != 1 {
		t.Fatalf("NumSims = %d after cancellation mid-second-stimulus, want 1", rep.NumSims)
	}
	if rep.Verdict != ProbablyEquivalent || rep.Counterexample != nil {
		t.Fatalf("verdict = %v (ce %v), want inconclusive probably-equivalent",
			rep.Verdict, rep.Counterexample)
	}
}

// TestParallelStatsGaugesArePeaks is the multi-worker regression for
// Stats.Add's gauge semantics: every parallel worker owns a package with its
// own identity chain and unique tables, and the aggregated report must take
// the per-worker peak of those populations, not their sum.  Summing reported
// a node footprint no package ever had, growing linearly with the worker
// count.
func TestParallelStatsGaugesArePeaks(t *testing.T) {
	g := ghz(6)
	opts := Options{R: 16, Seed: 1, SkipEC: true}
	seq := Check(g, g.Clone(), opts)
	if seq.Err != nil || seq.DD.VectorNodes == 0 {
		t.Fatalf("sequential run unusable: err=%v stats=%+v", seq.Err, seq.DD)
	}

	opts.Parallel = 8
	par := Check(g, g.Clone(), opts)
	if par.Err != nil {
		t.Fatalf("parallel run failed: %v", par.Err)
	}
	// Each worker simulates a subset of the 16 stimuli, so no worker's table
	// can outgrow the sequential run's; the eight-way sum would.
	if par.DD.VectorNodes > seq.DD.VectorNodes {
		t.Errorf("parallel VectorNodes gauge %d exceeds sequential %d (summed, not peaked?)",
			par.DD.VectorNodes, seq.DD.VectorNodes)
	}
	if par.DD.MatrixNodes > seq.DD.MatrixNodes {
		t.Errorf("parallel MatrixNodes gauge %d exceeds sequential %d (summed, not peaked?)",
			par.DD.MatrixNodes, seq.DD.MatrixNodes)
	}
	// The counters, by contrast, really do sum: the parallel run performed
	// at least as many node creations in aggregate.
	if par.DD.NodesCreated == 0 || par.DD.NodesCreated < seq.DD.NodesCreated {
		t.Errorf("parallel NodesCreated %d < sequential %d; counters must aggregate",
			par.DD.NodesCreated, seq.DD.NodesCreated)
	}
}
