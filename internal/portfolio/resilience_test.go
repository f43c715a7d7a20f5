package portfolio

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/ec"
	"qcec/internal/resource"
)

// panickyProver panics unconditionally on every Run.
func panickyProver(name string) Prover {
	return Prover{
		Name: name,
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			panic("injected prover crash")
		},
	}
}

// TestPanickingProverIsIsolated races a crashing prover against a real one:
// the crash must be contained in its report (StopPanicked with a typed
// *resource.PanicError) while the surviving prover still wins.
func TestPanickingProverIsIsolated(t *testing.T) {
	g1, g2 := pairGHZ(t)
	provers := []Prover{panickyProver("boom"), AlternatingProver(Config{})}

	res := Run(context.Background(), g1, g2, provers, Options{})

	if res.Verdict != Equivalent {
		t.Fatalf("verdict = %v, want %v", res.Verdict, Equivalent)
	}
	if res.Winner != "alt" {
		t.Fatalf("winner = %q, want alt", res.Winner)
	}
	crash := res.Reports[0]
	if crash.Stop != StopPanicked {
		t.Fatalf("crashed prover stop = %v, want %v", crash.Stop, StopPanicked)
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
	provers := []Prover{panickyProver("a"), panickyProver("b")}

	res := Run(context.Background(), g1, g2, provers, Options{})

	if res.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want %v", res.Verdict, Inconclusive)
	}
	for _, rep := range res.Reports {
		if rep.Stop != StopPanicked {
			t.Fatalf("prover %s stop = %v, want %v", rep.Name, rep.Stop, StopPanicked)
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
	good := AlternatingProver(Config{})
	p := Prover{
		Name: "flaky",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			panic("primary config crash")
		},
		Degraded: good.Run,
	}

	res := Run(context.Background(), g1, g2, []Prover{p}, Options{RetryCrashed: true})

	if res.Verdict != Equivalent {
		t.Fatalf("verdict = %v, want %v", res.Verdict, Equivalent)
	}
	rep := res.Reports[0]
	if !rep.Retried {
		t.Fatal("report not marked Retried")
	}
	if rep.Stop != StopWon {
		t.Fatalf("stop = %v, want %v", rep.Stop, StopWon)
	}
	var perr *resource.PanicError
	if !errors.As(rep.Err, &perr) {
		t.Fatalf("first crash not kept on record: err = %v", rep.Err)
	}
}

// TestConfigDegraded: the crash-retry configuration runs the simulation
// sequentially and takes its node budget from ec.DegradedNodeLimit, the one
// rule the server's transient retry applies too; nothing else changes.
func TestConfigDegraded(t *testing.T) {
	for _, limit := range []int{-1, 0, 100, 8192} {
		cfg := Config{R: 7, SimParallel: 4, ECNodeLimit: limit}
		d := cfg.degraded()
		if d.SimParallel != 0 || d.ECNodeLimit != ec.DegradedNodeLimit(limit) || d.R != cfg.R {
			t.Errorf("limit %d: degraded config %+v", limit, d)
		}
	}
}

// TestRetryCrashedOffByDefault: without RetryCrashed the Degraded fallback
// must not run.
func TestRetryCrashedOffByDefault(t *testing.T) {
	g1, g2 := pairGHZ(t)
	degradedRan := false
	p := Prover{
		Name: "flaky",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			panic("crash")
		},
		Degraded: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			degradedRan = true
			return Outcome{Verdict: Equivalent}
		},
	}

	res := Run(context.Background(), g1, g2, []Prover{p}, Options{})

	if degradedRan {
		t.Fatal("Degraded ran without RetryCrashed")
	}
	if res.Reports[0].Stop != StopPanicked {
		t.Fatalf("stop = %v, want %v", res.Reports[0].Stop, StopPanicked)
	}
	if res.Reports[0].Retried {
		t.Fatal("report marked Retried without a retry")
	}
}

// TestRetryDegradedPanicToo: when the degraded run also crashes, the report
// stays StopPanicked (with the second crash) and still marks the retry.
func TestRetryDegradedPanicToo(t *testing.T) {
	g1, g2 := pairGHZ(t)
	p := Prover{
		Name: "doubly-flaky",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			panic("primary crash")
		},
		Degraded: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			panic("degraded crash")
		},
	}

	res := Run(context.Background(), g1, g2, []Prover{p}, Options{RetryCrashed: true})

	rep := res.Reports[0]
	if rep.Stop != StopPanicked {
		t.Fatalf("stop = %v, want %v", rep.Stop, StopPanicked)
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
// provers must not leak goroutines.
func TestNoGoroutineLeakAfterCrashes(t *testing.T) {
	g1, g2 := pairGHZ(t)
	good := AlternatingProver(Config{})
	flaky := Prover{
		Name: "flaky",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) Outcome {
			panic("crash")
		},
		Degraded: good.Run,
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		Run(context.Background(), g1, g2, []Prover{flaky, good}, Options{
			RetryCrashed: true,
			MemHardLimit: 64 << 30, // watchdog active but never tripping
		})
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
// heap, the shared watchdog must cancel the race and cancelled provers must
// be reported as StopMemLimit with the typed cause attached.
func TestMemLimitRaceReports(t *testing.T) {
	g1, g2 := pairGHZ(t)
	done := make(chan struct{})
	provers := []Prover{hungProver(done)}

	res := Run(context.Background(), g1, g2, provers, Options{
		MemHardLimit: 1, // below any live heap: trips on the first sample
		Timeout:      30 * time.Second,
	})

	if res.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want %v", res.Verdict, Inconclusive)
	}
	rep := res.Reports[0]
	if rep.Stop != StopMemLimit {
		t.Fatalf("stop = %v, want %v", rep.Stop, StopMemLimit)
	}
	var mle *resource.MemoryLimitError
	if !errors.As(rep.Err, &mle) {
		t.Fatalf("err = %v (%T), want *resource.MemoryLimitError", rep.Err, rep.Err)
	}
	if mle.HeapBytes == 0 {
		t.Fatal("MemoryLimitError has zero HeapBytes")
	}
	if res.Mem == nil {
		t.Fatal("Result.Mem not populated by the race's watchdog")
	}
	if res.Mem.HardTrips == 0 {
		t.Fatal("watchdog stats record no hard trip")
	}
}
