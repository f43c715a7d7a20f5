package faultinject_test

// The chaos suite: every fault class, injected into the real checking flow
// on known-equivalent and known-inequivalent pairs, must degrade into a
// typed report — never crash the process, and never flip a verdict (an
// equivalent pair must not become NotEquivalent, an inequivalent pair must
// not become Equivalent).

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/errinject"
	"qcec/internal/faultinject"
	"qcec/internal/resource"
)

// chaosPair is one instance of the suite with its fault-free verdict.
type chaosPair struct {
	name     string
	g1, g2   *circuit.Circuit
	baseline core.Verdict
}

func ghz(n int) *circuit.Circuit {
	c := circuit.New(n, "ghz")
	c.H(0)
	for i := 1; i < n; i++ {
		c.CX(i-1, i)
	}
	return c
}

// chaosPairs builds the seed suite: an equivalent pair and one buggy pair
// per injectable error class, each with its fault-free baseline verdict.
func chaosPairs(t *testing.T) []chaosPair {
	t.Helper()
	base := ghz(4)
	pairs := []chaosPair{{name: "equivalent", g1: base, g2: base.Clone()}}
	for _, kind := range errinject.AllKinds() {
		buggy, _, err := errinject.Inject(base, kind, 7)
		if err != nil {
			continue // class not applicable to this circuit
		}
		pairs = append(pairs, chaosPair{name: kind.String(), g1: base, g2: buggy})
	}
	for i := range pairs {
		rep := core.Check(pairs[i].g1, pairs[i].g2, core.Options{SkipEC: true})
		if rep.Err != nil {
			t.Fatalf("fault-free baseline %s failed: %v", pairs[i].name, rep.Err)
		}
		pairs[i].baseline = rep.Verdict
	}
	return pairs
}

// assertNoFlip fails the test when a faulted run contradicts the fault-free
// baseline.  Degrading to ProbablyEquivalent is always acceptable.
func assertNoFlip(t *testing.T, name string, baseline, got core.Verdict) {
	t.Helper()
	if got == baseline || got == core.ProbablyEquivalent {
		return
	}
	t.Fatalf("%s: verdict flipped under fault: baseline %v, got %v", name, baseline, got)
}

func TestChaosPanicAtApply(t *testing.T) {
	pairs := chaosPairs(t)
	deactivate := faultinject.Activate(faultinject.Spec{Class: faultinject.PanicAtApply, N: 3})
	defer deactivate()

	for _, p := range pairs {
		rep := core.Check(p.g1, p.g2, core.Options{SkipEC: true})
		assertNoFlip(t, p.name, p.baseline, rep.Verdict)
		if rep.Err == nil {
			t.Fatalf("%s: injected panic produced no Report.Err", p.name)
		}
		var perr *resource.PanicError
		if !errors.As(rep.Err, &perr) {
			t.Fatalf("%s: Err = %v (%T), want *resource.PanicError", p.name, rep.Err, rep.Err)
		}
		var inj *faultinject.InjectedPanic
		if !errors.As(rep.Err, &inj) {
			t.Fatalf("%s: panic cause is not the injected fault: %v", p.name, rep.Err)
		}
		if rep.Exhaustive {
			t.Fatalf("%s: crashed run still claims exhaustive coverage", p.name)
		}
	}
}

func TestChaosNonFiniteWeight(t *testing.T) {
	pairs := chaosPairs(t)
	deactivate := faultinject.Activate(faultinject.Spec{Class: faultinject.NonFiniteWeight, N: 2})
	defer deactivate()

	for _, p := range pairs {
		rep := core.Check(p.g1, p.g2, core.Options{SkipEC: true})
		assertNoFlip(t, p.name, p.baseline, rep.Verdict)
		if rep.Err == nil {
			t.Fatalf("%s: non-finite weight produced no Report.Err", p.name)
		}
		var nfe *cn.NonFiniteError
		if !errors.As(rep.Err, &nfe) {
			t.Fatalf("%s: Err = %v, want to unwrap to *cn.NonFiniteError", p.name, rep.Err)
		}
	}
}

func TestChaosSlowApply(t *testing.T) {
	pairs := chaosPairs(t)
	deactivate := faultinject.Activate(faultinject.Spec{
		Class:  faultinject.SlowApply,
		N:      1,
		Repeat: true,
		Delay:  5 * time.Millisecond,
	})
	defer deactivate()

	for _, p := range pairs {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		rep := core.Check(p.g1, p.g2, core.Options{SkipEC: true, Context: ctx})
		cancel()
		assertNoFlip(t, p.name, p.baseline, rep.Verdict)
		// A slowdown is not a fault in the checker: the run must end as a
		// clean cancellation (or finish legitimately), never an error.
		if rep.Err != nil {
			t.Fatalf("%s: slow prover surfaced an error: %v", p.name, rep.Err)
		}
		if rep.Verdict == core.ProbablyEquivalent && !rep.Cancelled {
			t.Fatalf("%s: inconclusive without Cancelled under pure slowdown", p.name)
		}
	}
}

func TestChaosPanicParallelWorkers(t *testing.T) {
	pairs := chaosPairs(t)
	deactivate := faultinject.Activate(faultinject.Spec{Class: faultinject.PanicAtApply, N: 4})
	defer deactivate()

	for _, p := range pairs {
		before := runtime.NumGoroutine()
		rep := core.Check(p.g1, p.g2, core.Options{SkipEC: true, Parallel: 2})
		assertNoFlip(t, p.name, p.baseline, rep.Verdict)
		if rep.Verdict != core.NotEquivalent {
			// Unless a healthy worker found a definitive counterexample, a
			// dead worker must surface and void any exhaustive claim.
			if rep.Err == nil {
				t.Fatalf("%s: worker crash produced no Report.Err", p.name)
			}
			if rep.Exhaustive {
				t.Fatalf("%s: crashed parallel run claims exhaustive coverage", p.name)
			}
		}
		// All workers must have exited (wg.Wait), crash or not.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before+2 {
			t.Fatalf("%s: goroutines before=%d after=%d — worker leak", p.name, before, n)
		}
	}
}

func TestChaosPanicInEC(t *testing.T) {
	g1 := ghz(4)
	g2 := g1.Clone()
	deactivate := faultinject.Activate(faultinject.Spec{Class: faultinject.PanicAtApply, N: 2})
	defer deactivate()

	res := ec.Check(g1, g2, ec.Options{})
	if res.Verdict != ec.TimedOut {
		t.Fatalf("verdict = %v, want %v", res.Verdict, ec.TimedOut)
	}
	if res.Cause != ec.CauseError {
		t.Fatalf("cause = %v, want %v", res.Cause, ec.CauseError)
	}
	var inj *faultinject.InjectedPanic
	if !errors.As(res.Err, &inj) {
		t.Fatalf("Err = %v, want to unwrap to *faultinject.InjectedPanic", res.Err)
	}
}

func TestChaosAllocSpikeTripsWatchdog(t *testing.T) {
	// Deep circuit so the spikes have many firing points.
	g1 := circuit.New(4, "deep")
	for r := 0; r < 8; r++ {
		g1.H(0)
		for i := 1; i < 4; i++ {
			g1.CX(i-1, i)
		}
	}
	g2 := g1.Clone()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The options surface has no interval knob; build the watchdog
	// externally with a fast sampler and hand it to ec through the context.
	w, ctx := resource.Start(context.Background(), resource.Config{
		HardLimit: ms.HeapAlloc + 24<<20,
		Interval:  2 * time.Millisecond,
	})
	defer w.Stop()

	deactivate := faultinject.Activate(faultinject.Spec{
		Class:  faultinject.AllocSpike,
		N:      1,
		Repeat: true,
		Bytes:  8 << 20,
		Delay:  5 * time.Millisecond,
	})
	defer deactivate()

	res := ec.Check(g1, g2, ec.Options{Context: ctx})
	if res.Verdict != ec.TimedOut {
		t.Fatalf("verdict = %v, want %v (clean degradation)", res.Verdict, ec.TimedOut)
	}
	if res.Cause != ec.CauseMemLimit {
		t.Fatalf("cause = %v, want %v", res.Cause, ec.CauseMemLimit)
	}
	var mle *resource.MemoryLimitError
	if !errors.As(res.Err, &mle) {
		t.Fatalf("Err = %v (%T), want *resource.MemoryLimitError", res.Err, res.Err)
	}
	if st := w.Stats(); st.HardTrips == 0 {
		t.Fatalf("watchdog recorded no hard trip: %+v", st)
	}
}

// TestChaosOnceEnablesRetry: a Once fault fires exactly one time process-
// wide, so a retried run on the degraded options (core.Options.Degraded,
// the configuration of the race's RetryCrashed and of qcecd's transient
// retry) succeeds.
func TestChaosOnceEnablesRetry(t *testing.T) {
	g1 := ghz(3)
	g2 := g1.Clone()
	deactivate := faultinject.Activate(faultinject.Spec{
		Class: faultinject.PanicAtApply,
		N:     1,
		Once:  true,
	})
	defer deactivate()

	opts := core.Options{SkipEC: true, Parallel: 2}
	first := core.Check(g1, g2, opts)
	if first.Err == nil {
		t.Fatal("first run did not observe the injected fault")
	}
	second := core.Check(g1, g2, opts.Degraded())
	if second.Err != nil {
		t.Fatalf("second run still faulted: %v", second.Err)
	}
	if second.Verdict != core.Equivalent {
		t.Fatalf("second run verdict = %v, want %v", second.Verdict, core.Equivalent)
	}
}
