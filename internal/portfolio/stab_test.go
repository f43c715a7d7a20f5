package portfolio_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/portfolio"
)

// TestStabProverWinsCliffordRace races the tableau prover against the full
// DD-based checker on a wide Clifford pair: the polynomial-time path must
// deliver the verdict first.
func TestStabProverWinsCliffordRace(t *testing.T) {
	g1 := bench.RandomClifford(20, 2000, 11)
	g2 := g1.Clone()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	rep := core.Check(g1, g2, core.Options{Context: ctx, Provers: []string{"stab", "dd"}, UpToGlobalPhase: true})
	if rep.DecidedBy != "stab" {
		t.Fatalf("winner = %q, want stab (reports: %+v)", rep.DecidedBy, rep.Provers)
	}
	if rep.Verdict != core.Equivalent && rep.Verdict != core.EquivalentUpToGlobalPhase {
		t.Fatalf("verdict = %v, want equivalent", rep.Verdict)
	}
	if got := rep.Provers[0]; got.Stop != portfolio.StopWon {
		t.Fatalf("stab stop = %v, want won", got.Stop)
	}
}

// TestStabProverDeclinesNonClifford: a single T gate must make the tableau
// prover bow out with StopError after only a gate-set scan, leaving the race
// to the other provers.
func TestStabProverDeclinesNonClifford(t *testing.T) {
	g1 := circuit.New(2, "g").H(0).T(1).CX(0, 1)
	g2 := g1.Clone()

	rep := core.Check(g1, g2, core.Options{Provers: []string{"stab"}})
	if got := rep.Provers[0]; got.Stop != portfolio.StopError || got.Detail != "non-Clifford gate set" {
		t.Fatalf("stab stop = %v (%q), want the non-Clifford decline", got.Stop, got.Detail)
	}

	rep = core.Check(g1, g2, core.Options{Provers: []string{"stab", "sim"}})
	if rep.DecidedBy == "stab" {
		t.Fatalf("stab won on a non-Clifford pair")
	}
	if rep.Verdict != core.Equivalent && rep.Verdict != core.EquivalentUpToGlobalPhase {
		t.Fatalf("verdict = %v, want equivalent from the surviving prover", rep.Verdict)
	}
}

// TestStabProverNoLeakWhenLosing repeatedly races the tableau prover against
// an instant winner so stab always loses, and checks no goroutines pile up:
// the lost-race cancellation must fully unwind the tableau path.
func TestStabProverNoLeakWhenLosing(t *testing.T) {
	g1 := bench.RandomClifford(16, 4000, 5)
	g2 := g1.Clone()
	stab := standardProver(t, "stab", core.Options{UpToGlobalPhase: true})
	instant := portfolio.Prover{
		Name: "instant",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			return portfolio.Outcome{Verdict: portfolio.EquivalentUpToGlobalPhase, Detail: "oracle"}
		},
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		res := portfolio.Run(context.Background(), g1, g2, []portfolio.Prover{stab, instant})
		if !res.Verdict.Definitive() {
			t.Fatalf("iteration %d: race inconclusive", i)
		}
	}
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
