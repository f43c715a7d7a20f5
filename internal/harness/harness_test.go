package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
)

func TestBuildEquivalentSuiteSmall(t *testing.T) {
	suite, err := BuildEquivalentSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < 10 {
		t.Fatalf("small suite has only %d instances", len(suite))
	}
	for _, inst := range suite {
		if inst.G.NumGates() == 0 || inst.Gp.NumGates() == 0 {
			t.Errorf("%s: empty circuit", inst.Name)
		}
		if inst.G.N != inst.Gp.N {
			t.Errorf("%s: register mismatch", inst.Name)
		}
		if !inst.WantEquivalent {
			t.Errorf("%s: equivalent suite instance not marked equivalent", inst.Name)
		}
	}
}

// The ground truth of the suite: every equivalent instance must verify with
// the complete routine.
func TestEquivalentSuiteIsEquivalent(t *testing.T) {
	suite, err := BuildEquivalentSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range suite {
		r := ec.Check(inst.G, inst.Gp, ec.Options{
			Strategy:   ec.Proportional,
			OutputPerm: inst.OutputPerm,
			Timeout:    time.Minute,
		})
		if r.Verdict != ec.Equivalent {
			t.Errorf("%s: pipeline output not equivalent: %v (%s)", inst.Name, r.Verdict, r.Reason)
		}
	}
}

func TestNonEquivalentSuiteIsNotEquivalent(t *testing.T) {
	suite, err := BuildNonEquivalentSuite(Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range suite {
		if inst.WantEquivalent || inst.Injection == "" {
			t.Errorf("%s: missing injection metadata", inst.Name)
		}
		r := ec.Check(inst.G, inst.Gp, ec.Options{
			Strategy:   ec.Proportional,
			OutputPerm: inst.OutputPerm,
			Timeout:    time.Minute,
		})
		if r.Verdict == ec.Equivalent || r.Verdict == ec.EquivalentUpToGlobalPhase {
			t.Errorf("%s: injected error produced an equivalent circuit (%s)", inst.Name, inst.Injection)
		}
	}
}

func TestRunInstanceAndTables(t *testing.T) {
	suite, err := BuildNonEquivalentSuite(Small, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{R: 16, ECTimeout: 5 * time.Second, Strategy: ec.Construction, Seed: 3}
	rows := RunSuite(suite[:4], opts)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.SimDetected {
			t.Errorf("%s: simulation failed to detect the injected error (%s)", r.Name, r.Injection)
		}
		if r.NumSims < 1 {
			t.Errorf("%s: NumSims = %d", r.Name, r.NumSims)
		}
	}
	var sb strings.Builder
	PrintTable1a(&sb, rows, opts)
	if !strings.Contains(sb.String(), "Table Ia") {
		t.Error("table header missing")
	}
}

func TestRunTable1bShape(t *testing.T) {
	suite, err := BuildEquivalentSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{R: 10, ECTimeout: 5 * time.Second, Strategy: ec.Construction, Seed: 5}
	rows := RunSuite(suite[:4], opts)
	for _, r := range rows {
		if r.SimDetected {
			t.Errorf("%s: simulation 'detected' a difference on an equivalent pair", r.Name)
		}
		if r.FlowVerdict != core.ProbablyEquivalent && r.FlowVerdict != core.Equivalent {
			t.Errorf("%s: flow verdict %v", r.Name, r.FlowVerdict)
		}
	}
	var sb strings.Builder
	PrintTable1b(&sb, rows, opts)
	if !strings.Contains(sb.String(), "Table Ib") {
		t.Error("table header missing")
	}
}

func TestRunFlowSummary(t *testing.T) {
	eq, err := BuildEquivalentSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	neq, err := BuildNonEquivalentSuite(Small, 13)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]Instance{}, eq[:3]...), neq[:3]...)
	s := RunFlow(all, core.Options{R: 12, ECTimeout: 10 * time.Second, Strategy: ec.Proportional, Seed: 17})
	if s.Total != 6 {
		t.Fatalf("total = %d", s.Total)
	}
	if s.WrongVerdicts != 0 {
		t.Fatalf("flow produced %d wrong verdicts", s.WrongVerdicts)
	}
	if s.NotEquivalent < 3 {
		t.Errorf("flow missed injected errors: %+v", s)
	}
	var sb strings.Builder
	PrintFlowSummary(&sb, s)
	if sb.Len() == 0 {
		t.Error("empty flow summary")
	}
}

func TestTheoryExperimentMatchesPrediction(t *testing.T) {
	n := 7
	rows, err := TheoryExperiment(n, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("rows = %d", len(rows))
	}
	if _, err := TheoryExperiment(1, 23); err == nil {
		t.Error("out-of-range qubit count did not error")
	}
	if _, err := TheoryExperiment(15, 23); err == nil {
		t.Error("out-of-range qubit count did not error")
	}
	for _, r := range rows {
		// Exhaustive measurement must match 2^{-c} exactly: the difference
		// gate fires on exactly 2^{n-c} basis states.
		if math.Abs(r.Measured-r.Predicted) > 1e-12 {
			t.Errorf("c=%d: measured %g, predicted %g", r.Controls, r.Measured, r.Predicted)
		}
	}
	var sb strings.Builder
	PrintTheory(&sb, n, rows)
	if !strings.Contains(sb.String(), "theory") {
		t.Error("theory table header missing")
	}
}

func TestStimuliAblation(t *testing.T) {
	a := RunStimuliAblation(10, 10, 31)
	if a.ZeroDetected {
		t.Error("|0...0> stimulus cannot detect the Example-8 worst case")
	}
	if !a.AllOnesDetected {
		t.Error("the affected-column stimulus must detect the error")
	}
	// Random detection on 10 qubits with 10 stimuli has probability
	// ~ 10 * 2/1024 ≈ 2%; assert only that the call runs and reports.
	var sb strings.Builder
	PrintStimuliAblation(&sb, a)
	if sb.Len() == 0 {
		t.Error("empty stimuli ablation output")
	}
}

func TestStrategyAblation(t *testing.T) {
	suite, err := BuildEquivalentSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	rows := RunStrategyAblation(suite[:2], core.Options{ECTimeout: 10 * time.Second})
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 2 instances x 4 strategies", len(rows))
	}
	for _, r := range rows {
		if r.Verdict == ec.NotEquivalent {
			t.Errorf("%s/%s: equivalent instance judged not equivalent", r.Name, r.Strategy)
		}
	}
	var sb strings.Builder
	PrintStrategyAblation(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty strategy ablation output")
	}
}

func TestRAblation(t *testing.T) {
	suite, err := BuildEquivalentSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	rows := RunRAblation(suite[:5], []int{1, 4, 10}, 37)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Detection counts must be monotone in r.
	for i := 1; i < len(rows); i++ {
		if rows[i].Detected < rows[i-1].Detected {
			t.Errorf("detection not monotone in r: %+v", rows)
		}
	}
	// With r = 10, nearly everything should be caught.
	last := rows[len(rows)-1]
	if last.Detected < last.Total*8/10 {
		t.Errorf("r=10 caught only %d/%d", last.Detected, last.Total)
	}
	var sb strings.Builder
	PrintRAblation(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty r ablation output")
	}
}

func TestScaleStrings(t *testing.T) {
	for _, s := range []Scale{Small, Medium, Paper} {
		if s.String() == "" {
			t.Error("empty scale name")
		}
	}
}

func TestBuildClassicalSuiteAndSATComparison(t *testing.T) {
	suite, err := BuildClassicalSuite(Small, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < 8 {
		t.Fatalf("classical suite has %d instances", len(suite))
	}
	rows, err := RunSATComparison(suite, core.Options{R: 16, ECTimeout: 10 * time.Second, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// All three checkers must agree with the ground truth (the SAT
		// miter has no timeout issues at this scale).
		if r.WantEquivalent {
			if r.SATVerdict != 0 /* ecsat.Equivalent */ {
				t.Errorf("%s: SAT verdict %v on equivalent pair", r.Name, r.SATVerdict)
			}
			if r.DDVerdict != ec.Equivalent {
				t.Errorf("%s: DD verdict %v on equivalent pair", r.Name, r.DDVerdict)
			}
			if r.SimVerdict == core.NotEquivalent {
				t.Errorf("%s: simulation false positive", r.Name)
			}
		} else {
			if r.SATVerdict.String() != "not equivalent" {
				t.Errorf("%s: SAT verdict %v on buggy pair", r.Name, r.SATVerdict)
			}
			if r.DDVerdict != ec.NotEquivalent {
				t.Errorf("%s: DD verdict %v on buggy pair", r.Name, r.DDVerdict)
			}
			if r.SimVerdict != core.NotEquivalent {
				t.Errorf("%s: simulation missed the bug", r.Name)
			}
		}
	}
	var sb strings.Builder
	PrintSATComparison(&sb, rows)
	if !strings.Contains(sb.String(), "SAT vs DD") {
		t.Error("missing table header")
	}
}

func TestPrefilterComparison(t *testing.T) {
	instances, classes, err := BuildPrefilterSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunPrefilterComparison(instances, classes, core.Options{R: 8, ECTimeout: 10 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The flow must conclude on every class.
		if r.Flow == core.NotEquivalent || r.Flow == core.ProbablyEquivalent {
			t.Errorf("%s: flow verdict %v on an equivalent pair", r.Name, r.Flow)
		}
		switch r.Class {
		case "peephole":
			if r.Rewrite.String() != "equivalent" {
				t.Errorf("peephole class not proven by gate rewriting: %v", r.Rewrite)
			}
		case "clifford":
			if r.ZX.String() != "equivalent up to global phase" {
				t.Errorf("clifford class not proven by ZX: %v", r.ZX)
			}
		case "mapped":
			// Neither prefilter needs to conclude here; assert soundness only.
		}
	}
	var sb strings.Builder
	PrintPrefilterComparison(&sb, rows)
	if !strings.Contains(sb.String(), "Prefilter comparison") {
		t.Error("missing header")
	}
}

func TestCSVWriters(t *testing.T) {
	rows := []Row{{
		Name: "x", N: 3, SizeG: 5, SizeGp: 9,
		ECVerdict: ec.TimedOut, TEC: time.Second, ECTimedOut: true,
		NumSims: 1, TSim: time.Millisecond, SimDetected: true,
		WantEquivalent: false, Injection: "removed CNOT",
	}}
	var sb strings.Builder
	if err := WriteRowsCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "benchmark,n,") || !strings.Contains(out, "removed CNOT") {
		t.Errorf("rows CSV malformed:\n%s", out)
	}

	sb.Reset()
	if err := WriteTheoryCSV(&sb, []TheoryRow{{Controls: 2, Predicted: 0.25, Measured: 0.25}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.250000000") {
		t.Errorf("theory CSV malformed:\n%s", sb.String())
	}

	sb.Reset()
	if err := WriteStrategyCSV(&sb, []StrategyRow{{Name: "y", Strategy: ec.Lookahead, Verdict: ec.Equivalent, Runtime: time.Second, PeakNodes: 7}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lookahead") {
		t.Errorf("strategy CSV malformed:\n%s", sb.String())
	}
}

func TestRouterAblation(t *testing.T) {
	rows, err := RunRouterAblation(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s: a mapped circuit failed verification", r.Arch)
		}
		if r.GreedySwaps == 0 && r.LookaheadSwaps == 0 {
			t.Errorf("%s: no swaps inserted at all (workload too easy)", r.Arch)
		}
	}
	var sb strings.Builder
	PrintRouterAblation(&sb, rows)
	if !strings.Contains(sb.String(), "Router ablation") {
		t.Error("missing header")
	}
}

// TestECNodeLimitZeroDisablesBudget is the regression for the withDefaults
// clamp that silently forced a 2,000,000-node budget whenever ECNodeLimit
// was <= 0, contradicting the documented "(0 = none)": a tiny explicit
// budget must trip, and a zero budget must let the same instance complete.
func TestECNodeLimitZeroDisablesBudget(t *testing.T) {
	g := circuit.New(6, "ghz6")
	g.H(0)
	for q := 0; q < 5; q++ {
		g.CX(q, q+1)
	}
	inst := Instance{Name: "node-limit", N: 6, G: g, Gp: g.Clone(), WantEquivalent: true}

	tripped := RunInstance(inst, core.Options{R: 1, ECTimeout: 30 * time.Second, ECNodeLimit: 4})
	if !tripped.ECTimedOut {
		t.Fatalf("sanity: a 4-node budget did not trip (verdict %v)", tripped.ECVerdict)
	}

	free := RunInstance(inst, core.Options{R: 1, ECTimeout: 30 * time.Second, ECNodeLimit: 0})
	if free.ECTimedOut {
		t.Fatalf("ECNodeLimit 0 still bounded the check (verdict %v)", free.ECVerdict)
	}
	if free.ECVerdict != ec.Equivalent {
		t.Fatalf("unbounded check verdict = %v, want equivalent", free.ECVerdict)
	}
}

// TestRunFlowHonoursECNodeLimit: the flow experiment runs on the caller's
// options, ECNodeLimit included, so a budget too small for the complete
// check leaves an equivalent pair the simulations cannot cover probably
// equivalent (qectab -table flow -ec-node-limit used to be ignored).
func TestRunFlowHonoursECNodeLimit(t *testing.T) {
	g := circuit.New(6, "ghz6")
	g.H(0)
	for q := 0; q < 5; q++ {
		g.CX(q, q+1)
	}
	inst := Instance{Name: "node-limit", N: 6, G: g, Gp: g.Clone(), WantEquivalent: true}
	s := RunFlow([]Instance{inst}, core.Options{R: 1, ECTimeout: 30 * time.Second, ECNodeLimit: 4})
	if s.ProbablyEquivalent != 1 || s.Equivalent != 0 {
		t.Fatalf("flow under a 4-node budget: %+v, want the pair probably equivalent", s)
	}
}

// TestRunOptionsNodeLimitNormalization pins the withDefaults contract: 0 and
// negative node limits both reach the complete routine as "no limit", and
// the other defaults still apply.
func TestRunOptionsNodeLimitNormalization(t *testing.T) {
	if got := withDefaults(core.Options{}).ECNodeLimit; got != 0 {
		t.Fatalf("zero value normalized to %d, want 0 (no limit)", got)
	}
	if got := withDefaults(core.Options{ECNodeLimit: -1}).ECNodeLimit; got != 0 {
		t.Fatalf("-1 normalized to %d, want 0 (no limit)", got)
	}
	if got := withDefaults(core.Options{ECNodeLimit: 512}).ECNodeLimit; got != 512 {
		t.Fatalf("explicit budget rewritten to %d, want 512", got)
	}
	if got := withDefaults(core.Options{}).R; got != core.DefaultR {
		t.Fatalf("R default = %d, want %d", got, core.DefaultR)
	}
	if got := withDefaults(core.Options{}).ECTimeout; got != 10*time.Second {
		t.Fatalf("ECTimeout default = %v, want the harness's 10s", got)
	}
}
