package portfolio_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/portfolio"
	"qcec/internal/resource"
)

// panickyProver panics unconditionally on every Run.
func panickyProver(name string) portfolio.Prover {
	return portfolio.Prover{
		Name: name,
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			panic("injected prover crash")
		},
	}
}

// TestPanickingProverIsIsolated races a crashing prover against a real one:
// the crash must be contained in its report (StopPanicked with a typed
// *resource.PanicError) while the surviving prover still wins.
func TestPanickingProverIsIsolated(t *testing.T) {
	g1, g2 := pairGHZ(t)
	provers := []portfolio.Prover{panickyProver("boom"), standardProver(t, "alt", core.Options{})}

	res := portfolio.Run(context.Background(), g1, g2, provers)

	if res.Verdict != portfolio.Equivalent {
		t.Fatalf("verdict = %v, want %v", res.Verdict, portfolio.Equivalent)
	}
	if res.Winner != "alt" {
		t.Fatalf("winner = %q, want alt", res.Winner)
	}
	crash := res.Reports[0]
	if crash.Stop != portfolio.StopPanicked {
		t.Fatalf("crashed prover stop = %v, want %v", crash.Stop, portfolio.StopPanicked)
	}
	var perr *resource.PanicError
	if !errors.As(crash.Err, &perr) {
		t.Fatalf("crashed prover err = %v (%T), want *resource.PanicError", crash.Err, crash.Err)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("PanicError carries no stack trace")
	}
	if crash.Verdict.Definitive() {
		t.Fatalf("crashed prover has definitive verdict %v", crash.Verdict)
	}
}

// TestAllProversPanicStillReturns: even when every prover crashes, Run must
// return an inconclusive result with every report typed, not crash or hang.
func TestAllProversPanicStillReturns(t *testing.T) {
	g1, g2 := pairGHZ(t)
	provers := []portfolio.Prover{panickyProver("a"), panickyProver("b")}

	res := portfolio.Run(context.Background(), g1, g2, provers)

	if res.Verdict != portfolio.Inconclusive {
		t.Fatalf("verdict = %v, want %v", res.Verdict, portfolio.Inconclusive)
	}
	for _, rep := range res.Reports {
		if rep.Stop != portfolio.StopPanicked {
			t.Fatalf("prover %s stop = %v, want %v", rep.Name, rep.Stop, portfolio.StopPanicked)
		}
		if rep.Err == nil {
			t.Fatalf("prover %s has no error", rep.Name)
		}
	}
}

// TestRetryCrashedDegradedRecovers: a prover that panics on its primary
// configuration but succeeds with the degraded one must deliver the verdict
// on the retry, keep the original crash on record, and be marked Retried.
func TestRetryCrashedDegradedRecovers(t *testing.T) {
	g1, g2 := pairGHZ(t)
	good := standardProver(t, "alt", core.Options{})
	p := portfolio.Prover{
		Name: "flaky",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			panic("primary config crash")
		},
		Degraded: good.Run,
	}

	res := portfolio.Run(context.Background(), g1, g2, []portfolio.Prover{p})

	if res.Verdict != portfolio.Equivalent {
		t.Fatalf("verdict = %v, want %v", res.Verdict, portfolio.Equivalent)
	}
	rep := res.Reports[0]
	if !rep.Retried {
		t.Fatal("report not marked Retried")
	}
	if rep.Stop != portfolio.StopWon {
		t.Fatalf("stop = %v, want %v", rep.Stop, portfolio.StopWon)
	}
	var perr *resource.PanicError
	if !errors.As(rep.Err, &perr) {
		t.Fatalf("first crash not kept on record: err = %v", rep.Err)
	}
}

// TestConfigDegraded: the crash-retry configuration, core.Options.Degraded,
// runs the simulation sequentially on fresh packages and takes its node
// budget from ec.DegradedNodeLimit, the one rule qcecd's transient retry
// applies too; every other field is kept.
func TestConfigDegraded(t *testing.T) {
	pool := dd.NewPool(1)
	for _, limit := range []int{-1, 0, 100, 8192} {
		opts := core.Options{R: 7, Seed: 3, Parallel: 4, ECNodeLimit: limit, Pool: pool,
			Provers: []string{"sim"}, RetryCrashed: true, OutputPerm: []int{1, 0}}
		d := opts.Degraded()
		if d.Parallel != 0 || d.Pool != nil || d.ECNodeLimit != ec.DegradedNodeLimit(limit) {
			t.Errorf("limit %d: degraded options %+v", limit, d)
		}
		d.Parallel, d.Pool, d.ECNodeLimit = opts.Parallel, opts.Pool, opts.ECNodeLimit
		if !reflect.DeepEqual(d, opts) {
			t.Errorf("limit %d: Degraded changed more than Parallel, Pool and ECNodeLimit: %+v", limit, d)
		}
	}
}

// TestRetryCrashedOffByDefault: without RetryCrashed core attaches no
// degraded fallback, so a crashed prover is not re-run; with it, the
// provers that have a smaller configuration retry once.
func TestRetryCrashedOffByDefault(t *testing.T) {
	if p := standardProver(t, "alt", core.Options{}); p.Degraded != nil {
		t.Fatal("alt carries a degraded fallback without RetryCrashed")
	}
	if p := standardProver(t, "alt", core.Options{RetryCrashed: true}); p.Degraded == nil {
		t.Fatal("alt carries no degraded fallback under RetryCrashed")
	}
	if p := standardProver(t, "sat", core.Options{RetryCrashed: true}); p.Degraded != nil {
		t.Fatal("sat has no smaller configuration, yet carries a fallback")
	}

	// End to end: a nil circuit crashes the simulation prover outside its
	// workers' isolation, so the engine sees the panic.
	g1, _ := pairGHZ(t)
	for _, retry := range []bool{false, true} {
		rep := core.Check(g1, nil, core.Options{Provers: []string{"sim"}, RetryCrashed: retry})
		got := rep.Provers[0]
		if got.Stop != portfolio.StopPanicked {
			t.Fatalf("retry=%v: stop = %v, want %v", retry, got.Stop, portfolio.StopPanicked)
		}
		if got.Retried != retry {
			t.Fatalf("retry=%v: report Retried = %v", retry, got.Retried)
		}
		if rep.Verdict != core.ProbablyEquivalent || rep.DecidedBy != "" {
			t.Fatalf("retry=%v: crashed race decided %v by %q", retry, rep.Verdict, rep.DecidedBy)
		}
	}
}

// TestRetryDegradedPanicToo: when the degraded run also crashes, the report
// stays StopPanicked (with the second crash) and still marks the retry.
func TestRetryDegradedPanicToo(t *testing.T) {
	g1, g2 := pairGHZ(t)
	p := portfolio.Prover{
		Name: "doubly-flaky",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			panic("primary crash")
		},
		Degraded: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			panic("degraded crash")
		},
	}

	res := portfolio.Run(context.Background(), g1, g2, []portfolio.Prover{p})

	rep := res.Reports[0]
	if rep.Stop != portfolio.StopPanicked {
		t.Fatalf("stop = %v, want %v", rep.Stop, portfolio.StopPanicked)
	}
	if !rep.Retried {
		t.Fatal("report not marked Retried")
	}
	var perr *resource.PanicError
	if !errors.As(rep.Err, &perr) {
		t.Fatalf("err = %v, want *resource.PanicError", rep.Err)
	}
}

// TestNoGoroutineLeakAfterCrashes: repeated races with crashing and retried
// provers, under a memory watchdog, must not leak goroutines.
func TestNoGoroutineLeakAfterCrashes(t *testing.T) {
	g1, g2 := pairGHZ(t)
	good := standardProver(t, "alt", core.Options{})
	flaky := portfolio.Prover{
		Name: "flaky",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			panic("crash")
		},
		Degraded: good.Run,
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		// Watchdog active but never tripping.
		w, ctx := resource.Start(context.Background(), resource.Config{HardLimit: 64 << 30})
		portfolio.Run(ctx, g1, g2, []portfolio.Prover{flaky, good})
		w.Stop()
	}
	// Give cancelled timers/tickers a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d — leak", before, runtime.NumGoroutine())
}

// TestMemLimitRaceReports: with a hard limit below the process's current
// heap, the watchdog on the race's context must cancel the race and
// cancelled provers must be reported as StopMemLimit with the typed cause
// attached; core.Check starts that watchdog for a race with memory limits.
func TestMemLimitRaceReports(t *testing.T) {
	g1, g2 := pairGHZ(t)
	done := make(chan struct{})
	provers := []portfolio.Prover{hungProver(done)}

	// Below any live heap: trips on the first sample.
	w, ctx := resource.Start(context.Background(), resource.Config{HardLimit: 1})
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	res := portfolio.Run(ctx, g1, g2, provers)
	w.Stop()

	if res.Verdict != portfolio.Inconclusive {
		t.Fatalf("verdict = %v, want %v", res.Verdict, portfolio.Inconclusive)
	}
	rep := res.Reports[0]
	if rep.Stop != portfolio.StopMemLimit {
		t.Fatalf("stop = %v, want %v", rep.Stop, portfolio.StopMemLimit)
	}
	var mle *resource.MemoryLimitError
	if !errors.As(rep.Err, &mle) {
		t.Fatalf("err = %v (%T), want *resource.MemoryLimitError", rep.Err, rep.Err)
	}
	if mle.HeapBytes == 0 {
		t.Fatal("MemoryLimitError has zero HeapBytes")
	}
	if st := w.Stats(); st.HardTrips == 0 {
		t.Fatal("watchdog stats record no hard trip")
	}

	race := core.Check(g1, g2, core.Options{Provers: []string{"alt"}, MemHardLimit: 64 << 30})
	if race.Mem == nil || race.Mem.HardTrips != 0 {
		t.Fatalf("race under a memory limit: Report.Mem = %+v, want the watchdog's untripped counters", race.Mem)
	}
}
