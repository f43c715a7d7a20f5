package core

import (
	"testing"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/mapping"
)

// qft6Pair is the relabelled QFT-6 pair the complete check decides: its
// miter stays small, so the probe never yields.
func qft6Pair(t testing.TB) (g, gp *circuit.Circuit) {
	t.Helper()
	return routedPair(t, relabelled(bench.QFT(6), []int{3, 0, 5, 1, 4, 2}), mapping.Linear(6))
}

// TestCheckLeasesOncePerWorker: a pooled check leases one package per
// simulation worker and runs the stimuli, the complete check and any
// remaining columns on it, whichever stage decides.  Each stage's
// statistics hold only its own work: with no output permutation the
// simulation builds no gate DD and the complete check applies no gate to a
// state, so summing them, as qcecd does, counts nothing twice.  Without a
// pool, the complete check's node counts on the stage's package measure
// the miter alone and match a standalone ec.Check.
func TestCheckLeasesOncePerWorker(t *testing.T) {
	rev5, rev5p := reversiblePair(t, 5, 1, true)
	qft, qftp := qft6Pair(t)
	for _, c := range []struct {
		name      string
		g, gp     *circuit.Circuit
		decidedBy string
	}{
		{"routed rev5", rev5, rev5p, "sim"},
		{"relabelled QFT-6", qft, qftp, "ec:proportional"},
	} {
		pool := dd.NewPool(2)
		opts := Options{Pool: pool}
		for i := 0; i < 3; i++ {
			before := pool.Stats().Gets
			rep := Check(c.g, c.gp, opts)
			if rep.Verdict != Equivalent || rep.DecidedBy != c.decidedBy || rep.EC == nil {
				t.Fatalf("%s: %v by %q (complete check ran: %v), want equivalent by %s after a complete check",
					c.name, rep.Verdict, rep.DecidedBy, rep.EC != nil, c.decidedBy)
			}
			if gets := pool.Stats().Gets - before; gets != 1 {
				t.Errorf("%s, check %d: %d leases, want 1", c.name, i, gets)
			}
			if rep.EC.DD.ApplyCalls != 0 || rep.EC.DD.Lookups() == 0 {
				t.Errorf("%s: complete check's statistics hold %d state applications and %d lookups, want none and its own",
					c.name, rep.EC.DD.ApplyCalls, rep.EC.DD.Lookups())
			}
			if gates := rep.DD.GateHits + rep.DD.GateMisses; gates != 0 || rep.DD.ApplyCalls == 0 {
				t.Errorf("%s: simulation's statistics hold %d gate DDs and %d state applications, want none and its own",
					c.name, gates, rep.DD.ApplyCalls)
			}
		}
		if st := pool.Stats(); st.Puts != st.Gets || st.Forgotten != 0 {
			t.Errorf("%s: pool %+v, want every lease returned", c.name, st)
		}
	}

	want := ec.Check(qft, qftp, ec.Options{})
	rep := Check(qft, qftp, Options{})
	if rep.EC == nil || rep.EC.Cause != ec.CauseNone {
		t.Fatalf("relabelled QFT-6: complete check %+v, want one that ran to the end", rep.EC)
	}
	if rep.EC.PeakNodes != want.PeakNodes || rep.EC.FinalNodes != want.FinalNodes {
		t.Errorf("relabelled QFT-6: flow's complete check peaks at %d and ends at %d nodes, standalone at %d and %d",
			rep.EC.PeakNodes, rep.EC.FinalNodes, want.PeakNodes, want.FinalNodes)
	}
}

// TestStabilizerCheckLeasesOnce: a pooled pipeline check of a Clifford
// pair leases once, the stimuli's package, since its complete check, the
// tableau, builds no DD, with or without an output permutation.  An
// up-to-phase stab prover decides on the tableau alone and leases nothing.
func TestStabilizerCheckLeasesOnce(t *testing.T) {
	g := loadSeedCircuit(t, "../../circuits/clifford8.qasm")
	gp := g.Clone().Swap(0, 7)
	perm := []int{7, 1, 2, 3, 4, 5, 6, 0}
	pool := dd.NewPool(2)
	for _, c := range []struct {
		name string
		gp   *circuit.Circuit
		perm []int
	}{
		{"clifford8", g.Clone(), nil},
		{"clifford8 with its output relabelled", gp, perm},
	} {
		before := pool.Stats().Gets
		rep := Check(g, c.gp, Options{Pool: pool, OutputPerm: c.perm})
		if rep.Verdict != Equivalent || rep.DecidedBy != "stab" {
			t.Fatalf("%s: %v by %q, want equivalent by stab", c.name, rep.Verdict, rep.DecidedBy)
		}
		if gets := pool.Stats().Gets - before; gets != 1 {
			t.Errorf("%s: %d leases, want 1", c.name, gets)
		}
	}
	before := pool.Stats().Gets
	rep := Check(g, g.Clone(), Options{Provers: []string{"stab"}, UpToGlobalPhase: true, Pool: pool})
	if rep.Verdict != EquivalentUpToGlobalPhase {
		t.Fatalf("up to phase: %v, want equivalent up to phase", rep.Verdict)
	}
	if gets := pool.Stats().Gets - before; gets != 0 {
		t.Errorf("up to phase: %d leases, want none", gets)
	}
	if st := pool.Stats(); st.Puts != st.Gets || st.Forgotten != 0 {
		t.Errorf("pool %+v, want every lease returned", st)
	}
}

// TestFlowAllocations bounds the heap allocations of one pooled check of
// BenchmarkFlowRoutedPair's routed rev5 pair, which is decided by
// simulating all 32 columns over about 8,400 circuit gates.  Each circuit
// is compiled once per check into a gate alphabet, bound once per package,
// so the count (about 630) does not grow with the gates applied, and a
// budget near 2,000 catches any allocation per gate or per step.
func TestFlowAllocations(t *testing.T) {
	const budget = 2000
	g, gp := reversiblePair(t, 5, 1, true)
	opts := Options{Pool: dd.NewPool(2)}
	var rep Report
	allocs := testing.AllocsPerRun(5, func() { rep = Check(g, gp, opts) })
	if rep.Verdict != Equivalent || rep.DecidedBy != "sim" || rep.NumSims != 32 {
		t.Fatalf("routed rev5: %v by %q after %d sims, want equivalent by sim after 32", rep.Verdict, rep.DecidedBy, rep.NumSims)
	}
	t.Logf("%.0f allocations per check", allocs)
	if allocs > budget {
		t.Errorf("%.0f allocations per check, want at most %d", allocs, budget)
	}
}
