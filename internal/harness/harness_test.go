package harness

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/dense"
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
	if !slices.IsSortedFunc(rows, func(a, b Row) int { return strings.Compare(a.Name, b.Name) }) {
		t.Errorf("rows not in name order: %v, %v, %v, %v", rows[0].Name, rows[1].Name, rows[2].Name, rows[3].Name)
	}
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

// censusVerdict returns the census verdict of entry on pair in mode.
func censusVerdict(t *testing.T, rows []CensusRow, pair, mode, entry string) core.Verdict {
	t.Helper()
	for _, r := range rows {
		if r.Pair == pair && r.Mode == mode && r.Entry == entry {
			return r.Verdict
		}
	}
	t.Fatalf("no census row for %s on %s in %s mode", entry, pair, mode)
	return 0
}

// denseUnitary is c's unitary on the dense oracle, one basis column at a
// time; a SWAP applies as its three CX factors.
func denseUnitary(c *circuit.Circuit) dense.Matrix {
	x := circuit.Gate{Kind: circuit.X}.Matrix()
	u := dense.NewMatrix(1 << c.N)
	for col := range u {
		s := dense.BasisState(c.N, uint64(col))
		for _, g := range c.Gates {
			cs := make([]dense.Control, 0, len(g.Controls)+1)
			for _, k := range g.Controls {
				cs = append(cs, dense.Control{Qubit: k.Qubit, Neg: k.Neg})
			}
			if g.Kind != circuit.SWAP {
				s.ApplyGate(g.Matrix(), g.Target, cs)
				continue
			}
			for _, w := range [][2]int{{g.Target, g.Target2}, {g.Target2, g.Target}, {g.Target, g.Target2}} {
				s.ApplyGate(x, w[1], append(cs, dense.Control{Qubit: w[0]}))
			}
		}
		for row, a := range s {
			u[row][col] = a
		}
	}
	return u
}

// TestBuildClassicalSuiteAndSATComparison: every pair of the classical
// reversible suite carries the label the dense oracle gives it (equal
// unitaries, or unitaries that differ beyond any global phase), and the
// census's complete DD routine and simulations agree with that label.
func TestBuildClassicalSuiteAndSATComparison(t *testing.T) {
	suite, err := BuildClassicalSuite(Small, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < 8 {
		t.Fatalf("classical suite has %d instances", len(suite))
	}
	for _, inst := range suite {
		u, up := denseUnitary(inst.G), denseUnitary(inst.Gp)
		if inst.WantEquivalent && !dense.MatApproxEqual(u, up, 1e-9) {
			t.Errorf("%s: labelled equivalent, but the dense unitaries differ", inst.Name)
		}
		if !inst.WantEquivalent && dense.MatEqualUpToGlobalPhase(u, up, 1e-9) {
			t.Errorf("%s: labelled buggy, but the dense unitaries agree", inst.Name)
		}
	}
	opts := core.Options{R: 16, ECTimeout: 10 * time.Second, Seed: 43}
	rows := RunCensus(suite, opts)
	for _, inst := range suite {
		dd := censusVerdict(t, rows, inst.Name, "strict", "alt")
		sim := censusVerdict(t, rows, inst.Name, "strict", "sim")
		if inst.WantEquivalent {
			if dd != core.Equivalent {
				t.Errorf("%s: DD verdict %v on equivalent pair", inst.Name, dd)
			}
			if sim == core.NotEquivalent {
				t.Errorf("%s: simulation false positive", inst.Name)
			}
		} else {
			if dd != core.NotEquivalent {
				t.Errorf("%s: DD verdict %v on buggy pair", inst.Name, dd)
			}
			if sim != core.NotEquivalent {
				t.Errorf("%s: simulation missed the bug", inst.Name)
			}
		}
	}
	var sb strings.Builder
	PrintCensus(&sb, rows, opts)
	if !strings.Contains(sb.String(), "Prover census") {
		t.Error("missing table header")
	}
}

func TestPrefilterComparison(t *testing.T) {
	instances, err := BuildPrefilterSuite(Small)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{R: 8, ECTimeout: 10 * time.Second, Seed: 3}
	rows := RunCensus(instances, opts)
	for _, inst := range instances {
		// The flow must conclude on every class.
		if flow := censusVerdict(t, rows, inst.Name, "strict", CensusPipeline); flow == core.NotEquivalent || flow == core.ProbablyEquivalent {
			t.Errorf("%s: flow verdict %v on an equivalent pair", inst.Name, flow)
		}
		switch inst.Name {
		case "peephole":
			if rw := censusVerdict(t, rows, inst.Name, "strict", "rewrite"); rw != core.Equivalent {
				t.Errorf("peephole class not proven by gate rewriting: %v", rw)
			}
		case "clifford-recompile":
			if zx := censusVerdict(t, rows, inst.Name, "up-to-phase", "zx"); zx != core.EquivalentUpToGlobalPhase {
				t.Errorf("clifford class not proven by ZX: %v", zx)
			}
		case "decompose+map":
			// Neither incomplete prover needs to conclude here; assert
			// soundness only.
		}
	}
	var sb strings.Builder
	PrintCensus(&sb, rows, opts)
	if !strings.Contains(sb.String(), "Prover census") {
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
// equivalent (qectab -table flow -ec-node-limit used to be ignored).  The
// pair carries a T gate: a Clifford pair's complete check is the tableau,
// which builds no DD (TestRunFlowCliffordIgnoresECNodeLimit).
func TestRunFlowHonoursECNodeLimit(t *testing.T) {
	g := circuit.New(6, "ghz6+t")
	g.H(0)
	for q := 0; q < 5; q++ {
		g.CX(q, q+1)
	}
	g.T(2)
	inst := Instance{Name: "node-limit", N: 6, G: g, Gp: g.Clone(), WantEquivalent: true}
	s := RunFlow([]Instance{inst}, core.Options{R: 1, ECTimeout: 30 * time.Second, ECNodeLimit: 4})
	if s.ProbablyEquivalent != 1 || s.Equivalent != 0 {
		t.Fatalf("flow under a 4-node budget: %+v, want the pair probably equivalent", s)
	}
}

// TestRunFlowCliffordIgnoresECNodeLimit is TestRunFlowHonoursECNodeLimit on
// the Clifford GHZ pair: the tableau decides it, and the DD node budget
// does not apply.
func TestRunFlowCliffordIgnoresECNodeLimit(t *testing.T) {
	g := circuit.New(6, "ghz6")
	g.H(0)
	for q := 0; q < 5; q++ {
		g.CX(q, q+1)
	}
	inst := Instance{Name: "node-limit", N: 6, G: g, Gp: g.Clone(), WantEquivalent: true}
	s := RunFlow([]Instance{inst}, core.Options{R: 1, ECTimeout: 30 * time.Second, ECNodeLimit: 4})
	if s.Equivalent != 1 || s.ProbablyEquivalent != 0 {
		t.Fatalf("Clifford flow under a 4-node budget: %+v, want the pair equivalent", s)
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

// TestProbeExtrapolatesGateWorkOnly: on the medium sqr4 pair (n = 12,
// |G'| = 700, with an output permutation) the complete check builds the
// permutation target before its first gate.  When the probe counted that
// set-up as gate work, the yield rule multiplied it by the gate count,
// yielded after 1 of 716 gates and simulated all 4,096 columns (about 2 s);
// counting gate work only, the complete check decides after the R stimuli.
func TestProbeExtrapolatesGateWorkOnly(t *testing.T) {
	var inst *Instance
	for _, s := range specs(Medium) {
		if s.name != "sqr4" {
			continue
		}
		g, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		gp, perm, err := s.pipeline(g)
		if err != nil {
			t.Fatal(err)
		}
		inst = &Instance{Name: s.name, N: g.N, G: g, Gp: gp, OutputPerm: perm}
	}
	if inst == nil || inst.OutputPerm == nil {
		t.Fatal("no permuted sqr4 instance at medium scale")
	}
	rep := core.Check(inst.G, inst.Gp, core.Options{OutputPerm: inst.OutputPerm})
	if rep.Verdict != core.Equivalent || rep.DecidedBy != "ec:proportional" || rep.NumSims != core.DefaultR {
		t.Fatalf("sqr4: %v decided by %q after %d simulations, want equivalent by ec:proportional after %d",
			rep.Verdict, rep.DecidedBy, rep.NumSims, core.DefaultR)
	}
}
