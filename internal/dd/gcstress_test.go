package dd_test

import (
	"sync"
	"testing"

	"qcec/internal/bench"
	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/harness"
	"qcec/internal/mapping"
)

// gcValidator rides the fault-injection seam without injecting anything: at
// a package's first gate application it sets the collection floor to 1,
// which switches the pacing off so every MaybeGC collects, and at every
// later application it validates the unique tables and arenas if a
// collection ran since the last one.
type gcValidator struct {
	mu       sync.Mutex
	lastRuns map[*dd.Package]int
	checks   int
	err      error
}

func (v *gcValidator) BeforeApply(p *dd.Package, nth uint64) {
	if nth == 1 {
		p.SetGCThreshold(1)
	}
	runs := p.GCRuns()
	v.mu.Lock()
	defer v.mu.Unlock()
	if last, ok := v.lastRuns[p]; ok && runs == last {
		return
	}
	v.lastRuns[p] = runs
	if runs == 0 {
		return
	}
	v.checks++
	if err := p.ValidateTables(); err != nil && v.err == nil {
		v.err = err
	}
}

// TestCollectionsKeepTablesValid runs the simulation stage and the complete
// check on a routed compiled pair with a collection at every MaybeGC and
// validates the tables after each one: survivors are found by probing their
// own signatures, nothing else is in the tables, and no survivor points at
// a freed slot.  The verdict and simulation count must match a run without
// the pressure, and the check must run on one package, whose statistics
// it splits between the two stages.
func TestCollectionsKeepTablesValid(t *testing.T) {
	pair, err := harness.CompilePair("grover-4@ring", bench.Grover(4, 11), mapping.Ring(5))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{R: 4, Seed: 3}
	ref := core.Check(pair.Source, pair.Compiled, opts)
	if ref.Err != nil || ref.EC == nil {
		t.Fatalf("reference run: err %v, complete check ran: %v", ref.Err, ref.EC != nil)
	}

	v := &gcValidator{lastRuns: map[*dd.Package]int{}}
	dd.SetDefaultFaultInjector(v)
	defer dd.SetDefaultFaultInjector(nil)
	got := core.Check(pair.Source, pair.Compiled, opts)

	if v.err != nil {
		t.Fatalf("after a collection: %v", v.err)
	}
	if got.Err != nil || got.EC == nil {
		t.Fatalf("pressured run: err %v, complete check ran: %v", got.Err, got.EC != nil)
	}
	if got.Verdict != ref.Verdict || got.NumSims != ref.NumSims {
		t.Errorf("pressured run: %v after %d sims, reference %v after %d", got.Verdict, got.NumSims, ref.Verdict, ref.NumSims)
	}
	// A collection at every safe point: after each gate of every simulation
	// run, and after each step of the complete check (the proportional
	// scheme takes one step per gate of G).
	t.Logf("%d validations over %d packages; collections: sim %d, ec %d",
		v.checks, len(v.lastRuns), got.DD.GCRuns, got.EC.DD.GCRuns)
	if runs := got.NumSims * (pair.Source.NumGates() + pair.Compiled.NumGates()); got.DD.GCRuns < runs {
		t.Errorf("simulation stage collected %d times over %d gate steps, want every step", got.DD.GCRuns, runs)
	}
	if got.EC.DD.GCRuns < pair.Source.NumGates() {
		t.Errorf("complete check collected %d times for %d gates of G, want a collection per step", got.EC.DD.GCRuns, pair.Source.NumGates())
	}
	// One worker: the stimuli, the complete check and any remaining
	// columns share one package.
	if len(v.lastRuns) != 1 || v.checks < got.EC.DD.GCRuns/2 {
		t.Errorf("validated %d times over %d packages; sim collected %d times, ec %d",
			v.checks, len(v.lastRuns), got.DD.GCRuns, got.EC.DD.GCRuns)
	}
}
