package portfolio_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/decompose"
	"qcec/internal/ec"
	"qcec/internal/errinject"
	"qcec/internal/portfolio"
	"qcec/internal/qasm"
	"qcec/internal/revlib"
)

func pairGHZ(t *testing.T) (*circuit.Circuit, *circuit.Circuit) {
	t.Helper()
	g := circuit.New(3, "ghz3")
	g.Add(circuit.Gate{Kind: circuit.H, Target: 0, Target2: -1})
	g.Add(circuit.Gate{Kind: circuit.X, Target: 1, Target2: -1, Controls: []circuit.Control{{Qubit: 0}}})
	g.Add(circuit.Gate{Kind: circuit.X, Target: 2, Target2: -1, Controls: []circuit.Control{{Qubit: 1}}})
	return g, g.Clone()
}

// standardProver builds one of core's provers for a hand-assembled race.
func standardProver(t *testing.T, name string, opts core.Options) portfolio.Prover {
	t.Helper()
	p, err := core.NewProver(name, opts)
	if err != nil {
		t.Fatalf("NewProver(%q): %v", name, err)
	}
	return p
}

// hungProver blocks until the engine cancels it, then reports how it
// stopped; done is closed once the prover has observed the cancellation.
func hungProver(done chan<- struct{}) portfolio.Prover {
	return portfolio.Prover{
		Name: "hung",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			<-ctx.Done()
			close(done)
			return portfolio.Outcome{Stop: portfolio.StopCancelled, Detail: ctx.Err().Error()}
		},
	}
}

// TestHungProverDoesNotDelayWinner races a real prover against a prover
// that blocks until cancelled: the winner's verdict must arrive promptly and
// the hung prover must observe ctx.Done within the test budget.
func TestHungProverDoesNotDelayWinner(t *testing.T) {
	g1, g2 := pairGHZ(t)
	done := make(chan struct{})
	provers := []portfolio.Prover{hungProver(done), standardProver(t, "alt", core.Options{})}

	start := time.Now()
	res := portfolio.Run(context.Background(), g1, g2, provers)
	elapsed := time.Since(start)

	if res.Verdict != portfolio.Equivalent {
		t.Fatalf("verdict = %v, want %v", res.Verdict, portfolio.Equivalent)
	}
	if res.Winner != "alt" {
		t.Fatalf("winner = %q, want alt", res.Winner)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("race took %v; hung prover delayed the winner", elapsed)
	}
	select {
	case <-done:
	default:
		t.Fatal("hung prover never observed ctx.Done()")
	}
	if got := res.Reports[0]; got.Stop != portfolio.StopCancelled {
		t.Fatalf("hung prover stop = %v, want %v", got.Stop, portfolio.StopCancelled)
	}
	if got := res.Reports[1]; got.Stop != portfolio.StopWon {
		t.Fatalf("winning prover stop = %v, want %v", got.Stop, portfolio.StopWon)
	}
}

// TestPortfolioTimeout distinguishes the caller's deadline from
// lost-the-race cancellation: with no winner, a cancelled prover must be
// reported as timeout.
func TestPortfolioTimeout(t *testing.T) {
	g1, g2 := pairGHZ(t)
	done := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res := portfolio.Run(ctx, g1, g2, []portfolio.Prover{hungProver(done)})
	if res.Verdict.Definitive() {
		t.Fatalf("verdict = %v, want inconclusive", res.Verdict)
	}
	if res.Winner != "" {
		t.Fatalf("winner = %q, want none", res.Winner)
	}
	if got := res.Reports[0].Stop; got != portfolio.StopTimeout {
		t.Fatalf("stop = %v, want %v (caller deadline, not a lost race)", got, portfolio.StopTimeout)
	}
}

// deepRandomPair returns a heavily entangling non-Clifford circuit and a
// copy with an injected bit-flip — an instance where simulation (vector DDs)
// answers quickly while constructing the full unitary DD is hopeless.
func deepRandomPair() (*circuit.Circuit, *circuit.Circuit) {
	const n, gates = 11, 160
	rng := rand.New(rand.NewSource(42))
	g := circuit.New(n, "deep_random")
	for i := 0; i < gates; i++ {
		switch rng.Intn(3) {
		case 0:
			g.Add(circuit.Gate{Kind: circuit.H, Target: rng.Intn(n), Target2: -1})
		case 1:
			g.Add(circuit.Gate{Kind: circuit.T, Target: rng.Intn(n), Target2: -1})
		default:
			c := rng.Intn(n)
			x := rng.Intn(n - 1)
			if x >= c {
				x++
			}
			g.Add(circuit.Gate{Kind: circuit.X, Target: x, Target2: -1,
				Controls: []circuit.Control{{Qubit: c}}})
		}
	}
	gp := g.Clone()
	gp.Add(circuit.Gate{Kind: circuit.X, Target: 0, Target2: -1})
	return g, gp
}

// TestSimWinsAndSlowProversAreCancelled is the acceptance scenario: on a
// non-equivalent instance whose complete check is intractable, the race
// must return the simulation stage's counterexample while the DD provers
// are recorded as cancelled — not as having reached their private timeouts.
func TestSimWinsAndSlowProversAreCancelled(t *testing.T) {
	g, gp := deepRandomPair()
	rep := core.Check(g, gp, core.Options{
		Provers: []string{"sim", "dd", "alt"}, R: 2, Seed: 7, ECTimeout: 10 * time.Minute,
	})
	if rep.Verdict != core.NotEquivalent {
		t.Fatalf("verdict = %v, want %v (err %v)", rep.Verdict, core.NotEquivalent, rep.Err)
	}
	if rep.DecidedBy != "sim" {
		t.Fatalf("winner = %q, want sim (reports: %+v)", rep.DecidedBy, rep.Provers)
	}
	if rep.Counterexample == nil {
		t.Fatal("no counterexample from the simulation stage")
	}
	if len(rep.Provers) != 3 {
		t.Fatalf("got %d prover reports, want 3", len(rep.Provers))
	}
	for _, r := range rep.Provers[1:] {
		if r.Stop != portfolio.StopCancelled {
			t.Fatalf("prover %s stop = %v, want %v (report: %+v)", r.Name, r.Stop, portfolio.StopCancelled, r)
		}
	}
}

// loadCircuit reads a .qasm or .real seed benchmark.
func loadCircuit(t *testing.T, path string) *circuit.Circuit {
	t.Helper()
	if strings.HasSuffix(path, ".real") {
		f, err := revlib.ParseFile(path)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		return f.Circuit
	}
	prog, err := qasm.ParseFile(path)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return prog.Circuit
}

// TestPortfolioMatchesSingleStrategy checks, on the seed benchmark circuits
// and error-injected variants, that the race's verdict agrees with the
// single-strategy complete check.
func TestPortfolioMatchesSingleStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark sweep")
	}
	files := []string{"ghz5.qasm", "grover4_cx.qasm", "qft8.qasm", "hwb5.real", "inc6.real"}
	for _, f := range files {
		g := loadCircuit(t, filepath.Join("..", "..", "circuits", f))
		gp := decompose.Circuit(g, decompose.LevelCX)
		buggy, _, err := errinject.InjectAny(gp, 3)
		if err != nil {
			t.Fatalf("%s: inject: %v", f, err)
		}
		for _, tc := range []struct {
			label string
			g2    *circuit.Circuit
		}{{"decomposed", gp}, {"injected", buggy}} {
			single := ec.Check(g, tc.g2, ec.Options{
				Strategy:        ec.Proportional,
				UpToGlobalPhase: true,
				Timeout:         2 * time.Minute,
			})
			if single.Verdict == ec.TimedOut {
				t.Fatalf("%s/%s: single-strategy check timed out", f, tc.label)
			}
			rep := core.Check(g, tc.g2, core.Options{
				Provers: []string{"sim", "dd", "alt", "sat", "zx"},
				Seed:    11, UpToGlobalPhase: true, ECTimeout: 2 * time.Minute,
			})
			if rep.Err != nil {
				t.Fatal(rep.Err)
			}
			wantEq := single.Verdict == ec.Equivalent || single.Verdict == ec.EquivalentUpToGlobalPhase
			gotEq := rep.Verdict == core.Equivalent || rep.Verdict == core.EquivalentUpToGlobalPhase
			if rep.Verdict == core.ProbablyEquivalent || gotEq != wantEq {
				t.Errorf("%s/%s: race %v (winner %s) vs single-strategy %v",
					f, tc.label, rep.Verdict, rep.DecidedBy, single.Verdict)
			}
		}
	}
}

// TestFromNamesRejectsUnknown covers the CLI-facing prover selection: an
// unknown or empty list is a typed *core.OptionsError, raised before any
// prover or watchdog goroutine starts, and names are trimmed.
func TestFromNamesRejectsUnknown(t *testing.T) {
	g1, g2 := pairGHZ(t)
	before := runtime.NumGoroutine()
	for _, names := range [][]string{{"sim", "bogus"}, {}, {"", " "}} {
		// A hard limit would start a watchdog goroutine, and nil circuits
		// would crash any prover that ran.
		rep := core.Check(nil, nil, core.Options{Provers: names, MemHardLimit: 1})
		var oe *core.OptionsError
		if !errors.As(rep.Err, &oe) || oe.Field != "Provers" {
			t.Fatalf("Provers %q: err = %v (%T), want *core.OptionsError on Provers", names, rep.Err, rep.Err)
		}
		if rep.Verdict != core.ProbablyEquivalent || rep.Provers != nil || rep.Mem != nil {
			t.Fatalf("Provers %q: rejected list still ran: %+v", names, rep)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines before=%d after=%d: a rejected list started work", before, after)
	}
	if _, err := core.NewProver("bogus", core.Options{}); err == nil {
		t.Fatal("NewProver accepted an unknown name")
	}
	rep := core.Check(g1, g2, core.Options{Provers: []string{" sim", "zx "}})
	if rep.Err != nil || len(rep.Provers) != 2 {
		t.Fatalf("trimmed names: provers=%d err=%v", len(rep.Provers), rep.Err)
	}
}

// TestAllInconclusive: with no definitive prover the race ends inconclusive
// and per-prover reports survive.
func TestAllInconclusive(t *testing.T) {
	g1, g2 := pairGHZ(t)
	idle := portfolio.Prover{
		Name: "idle",
		Run: func(ctx context.Context, g1, g2 *circuit.Circuit) portfolio.Outcome {
			return portfolio.Outcome{Stop: portfolio.StopInconclusive, Detail: "gave up"}
		},
	}
	res := portfolio.Run(context.Background(), g1, g2, []portfolio.Prover{idle, idle})
	if res.Verdict.Definitive() || res.Winner != "" {
		t.Fatalf("result = %+v, want inconclusive", res)
	}
	if len(res.Reports) != 2 || res.Reports[0].Detail != "gave up" {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

// TestGateCostProverSelfSelects: the gate-cost prover declines pairs
// without a compilation blow-up, leaving them to the alternating prover,
// and runs compiled-looking pairs with the static cost estimate.
func TestGateCostProverSelfSelects(t *testing.T) {
	// Similar-length pair: decline so the plain alternating prover keeps it.
	g1, g2 := pairGHZ(t)
	rep := core.Check(g1, g2, core.Options{Provers: []string{"gatecost"}})
	if got := rep.Provers[0].Stop; got != portfolio.StopError || rep.Verdict != core.ProbablyEquivalent {
		t.Fatalf("uncompiled pair: stop = %v, verdict %v, want a decline", got, rep.Verdict)
	}
	rep = core.Check(g1, g2, core.Options{Provers: []string{"gatecost", "alt"}})
	if rep.DecidedBy != "alt" || rep.Verdict != core.Equivalent {
		t.Fatalf("uncompiled pair with alt: winner %q, verdict %v", rep.DecidedBy, rep.Verdict)
	}

	// Compilation-shaped pair (lowered Toffoli blows up g2): accepted via
	// the static estimate.
	src := circuit.New(3, "ccx")
	src.CCX(0, 1, 2)
	lowered := decompose.Circuit(src, decompose.LevelCX)
	rep = core.Check(src, lowered, core.Options{Provers: []string{"gatecost"}, ECTimeout: 10 * time.Second})
	if rep.Verdict != core.Equivalent || rep.DecidedBy != "gatecost" {
		t.Fatalf("compiled pair: verdict = %v by %q (reports %+v)", rep.Verdict, rep.DecidedBy, rep.Provers)
	}
}
