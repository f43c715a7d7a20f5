package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/decompose"
	"qcec/internal/dense"
	"qcec/internal/ec"
	"qcec/internal/mapping"
)

// offsetPair returns an n-qubit H/CX/T circuit and a copy with an RZ or P
// offset appended on its last wire.  That wire ends in an H after a CX has
// entangled it, so in every column it holds a balanced superposition, and
// an RZ offset moves each column's overlap only to second order.
func offsetPair(n int, kind circuit.Kind, offset float64) (g, gp *circuit.Circuit) {
	g = circuit.New(n, "htc")
	for q := 0; q < n-1; q++ {
		g.H(q)
	}
	for q := 0; q+2 < n; q++ {
		g.CX(q, q+1)
	}
	for q := 0; q < n-1; q++ {
		g.T(q)
	}
	g.CX(0, n-1).T(n - 1).H(n - 1)
	gp = g.Clone()
	if kind == circuit.RZ {
		gp.RZ(offset, n-1)
	} else {
		gp.Phase(offset, n-1)
	}
	return g, gp
}

// TestExhaustiveProofNeedsIdenticalColumns: simulating every column proves
// equivalence only when each column's two outputs are the same DD edge, the
// test the complete check applies to its miter.  Columns that agree only
// within the overlap tolerance (its error is quadratic in an RZ offset on a
// balanced wire) used to count as a proof, so the flow called pairs
// equivalent that ec.Check calls different.  Exhaustive or not, the flow
// must now give ec.Check's verdict.
func TestExhaustiveProofNeedsIdenticalColumns(t *testing.T) {
	for _, c := range []struct {
		n, r int
	}{{3, 0}, {5, 32}, {5, 0}} {
		for _, kind := range []circuit.Kind{circuit.RZ, circuit.P} {
			for _, offset := range []float64{1e-11, 1e-9, 1e-6, 1e-4, 1e-3} {
				name := fmt.Sprintf("n%d_r%d_%v_%g", c.n, c.r, kind, offset)
				t.Run(name, func(t *testing.T) {
					g, gp := offsetPair(c.n, kind, offset)
					want := ec.Check(g, gp, ec.Options{})
					rep := Check(g, gp, Options{R: c.r, Seed: 1})
					var got ec.Verdict
					switch rep.Verdict {
					case Equivalent:
						got = ec.Equivalent
					case NotEquivalent:
						got = ec.NotEquivalent
					default:
						t.Fatalf("flow: %v (%v)", rep.Verdict, rep.Err)
					}
					if got != want.Verdict {
						t.Fatalf("flow says %v (decided by %s, exhaustive %v), ec.Check says %v",
							rep.Verdict, rep.DecidedBy, rep.Exhaustive, want.Verdict)
					}
					if rep.Verdict == Equivalent && rep.DecidedBy == "sim" && !rep.Exhaustive {
						t.Fatalf("equivalent by simulation without exhaustive coverage")
					}
					// Without the complete check, columns that are not all
					// identical prove nothing.
					skip := Check(g, gp, Options{R: c.r, Seed: 1, SkipEC: true})
					if want.Verdict == ec.NotEquivalent && skip.Verdict == Equivalent {
						t.Fatalf("SkipEC flow proves a pair ec.Check calls different")
					}
				})
			}
		}
	}
}

// TestExhaustiveCountsDistinctStimuli: eight copies of |000> are one column,
// not all eight; the pair differs only where qubits 0 and 1 are set.
func TestExhaustiveCountsDistinctStimuli(t *testing.T) {
	g := circuit.New(3, "cx")
	g.CX(0, 1)
	gp := g.Clone()
	gp.CCX(0, 1, 2)
	for _, skip := range []bool{false, true} {
		rep := Check(g, gp, Options{Stimuli: make([]uint64, 8), SkipEC: skip})
		if rep.Exhaustive {
			t.Errorf("SkipEC %v: one distinct stimulus claims exhaustive coverage", skip)
		}
		want := NotEquivalent
		if skip {
			want = ProbablyEquivalent
		}
		if rep.Verdict != want {
			t.Errorf("SkipEC %v: verdict %v (decided by %q), want %v", skip, rep.Verdict, rep.DecidedBy, want)
		}
	}
}

// relabelled returns c with qubit q renamed perm[q].
func relabelled(c *circuit.Circuit, perm []int) *circuit.Circuit {
	out := circuit.New(c.N, c.Name)
	for _, g := range c.Gates {
		g.Target = perm[g.Target]
		ctl := make([]circuit.Control, len(g.Controls))
		for i, k := range g.Controls {
			ctl[i] = circuit.Control{Qubit: perm[k.Qubit], Neg: k.Neg}
		}
		g.Controls = ctl
		out.Add(g)
	}
	return out
}

// routedPair lowers src to CX and routes it with its layout restored and
// SWAPs lowered, as the qcecd client benchmark builds its questions.
func routedPair(t testing.TB, src *circuit.Circuit, arch *mapping.Architecture) (g, gp *circuit.Circuit) {
	t.Helper()
	g = decompose.Circuit(src, decompose.LevelCX)
	m, err := mapping.Map(g, mapping.Options{Arch: arch, RestoreLayout: true, DecomposeSwaps: true})
	if err != nil {
		t.Fatal(err)
	}
	return g, m.Circuit
}

// reversiblePair is a routed pair of the random n-bit reversible netlist
// drawn from seed.
func reversiblePair(t testing.TB, n int, seed int64, ring bool) (g, gp *circuit.Circuit) {
	t.Helper()
	src, err := bench.RandomReversible(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	arch := mapping.Linear(n)
	if ring {
		arch = mapping.Ring(n)
	}
	return routedPair(t, src, arch)
}

// TestFinishBySimulationChoosesByCost: on a routed reversible netlist the
// columns cost less than the miter, so the probe yields and the flow proves
// the pair by simulating all 2^n columns; on a QFT the miter stays small,
// and the complete check decides after the R stimuli.
func TestFinishBySimulationChoosesByCost(t *testing.T) {
	g, gp := reversiblePair(t, 5, 1, true) // the netlist of ec's BenchmarkCheckRoutedPair
	rep := Check(g, gp, Options{})
	if rep.Verdict != Equivalent || rep.DecidedBy != "sim" || !rep.Exhaustive || rep.NumSims != 32 {
		t.Fatalf("routed rev5: %v by %q, exhaustive %v, %d sims; want equivalent by sim after 32",
			rep.Verdict, rep.DecidedBy, rep.Exhaustive, rep.NumSims)
	}
	if rep.EC == nil || rep.EC.Cause != ec.CauseYielded || rep.EC.Verdict != ec.TimedOut {
		t.Fatalf("routed rev5: complete check %+v, want a yielded probe", rep.EC)
	}
	if rep.EC.Runtime <= 0 || rep.EC.DD.Lookups() == 0 {
		t.Errorf("yielded probe lost its runtime or DD statistics: %v, %+v", rep.EC.Runtime, rep.EC.DD)
	}

	g, gp = routedPair(t, relabelled(bench.QFT(6), []int{3, 0, 5, 1, 4, 2}), mapping.Linear(6))
	rep = Check(g, gp, Options{})
	if rep.Verdict != Equivalent || rep.DecidedBy != "ec:proportional" || rep.NumSims != DefaultR {
		t.Fatalf("relabelled QFT-6: %v by %q after %d sims; want equivalent by ec:proportional after %d",
			rep.Verdict, rep.DecidedBy, rep.NumSims, DefaultR)
	}
	if rep.Exhaustive {
		t.Error("relabelled QFT-6 claims exhaustive coverage")
	}
}

// missSeed draws DefaultR of the 16 columns of a 4-qubit pair and misses
// columns 7 and 15, the two an MCX on qubits 0-2 changes.
const missSeed = 23

// prepended returns a routed rev4 pair whose G' starts with gate.
func prepended(t *testing.T, gate circuit.Gate) (g, gp *circuit.Circuit) {
	t.Helper()
	g, routed := reversiblePair(t, 4, 1, false)
	gp = circuit.New(g.N, "mutant")
	gp.Add(gate)
	for _, gate := range routed.Gates {
		gp.Add(gate)
	}
	stimuli, err := chooseStimuli(g.N, Options{Seed: missSeed})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(stimuli, 7) || slices.Contains(stimuli, 15) {
		t.Fatalf("seed %d draws column 7 or 15: %v", missSeed, stimuli)
	}
	return g, gp
}

// missedMutant is a routed rev4 pair whose G' starts with an MCX on qubits
// 0-2 targeting 3, so the pair differs exactly on columns 7 and 15, and a
// seed whose DefaultR stimuli miss both.
func missedMutant(t *testing.T) (g, gp *circuit.Circuit, seed int64) {
	t.Helper()
	mcx := circuit.New(4, "mcx").MCX([]int{0, 1, 2}, 3).Gates[0]
	g, gp = prepended(t, mcx)
	return g, gp, missSeed
}

// runDense simulates c on |input> with the dense oracle.
func runDense(t *testing.T, c *circuit.Circuit, input uint64) dense.State {
	t.Helper()
	s := dense.BasisState(c.N, input)
	for _, g := range c.Gates {
		if g.Kind == circuit.SWAP {
			t.Fatal("runDense: SWAP not lowered")
		}
		cs := make([]dense.Control, len(g.Controls))
		for i, k := range g.Controls {
			cs[i] = dense.Control{Qubit: k.Qubit, Neg: k.Neg}
		}
		s.ApplyGate(g.Matrix(), g.Target, cs)
	}
	return s
}

// TestFinishBySimulationCatchesMissedMutant: the R stimuli miss both columns
// an MCX on n-1 controls changes, and the remaining columns catch it with a
// counterexample that replays on the dense simulator.
func TestFinishBySimulationCatchesMissedMutant(t *testing.T) {
	g, gp, seed := missedMutant(t)
	rep := Check(g, gp, Options{Seed: seed})
	if rep.Verdict != NotEquivalent || rep.DecidedBy != "sim" {
		t.Fatalf("%v by %q after %d sims, want not equivalent by sim", rep.Verdict, rep.DecidedBy, rep.NumSims)
	}
	if rep.EC == nil || rep.EC.Cause != ec.CauseYielded {
		t.Fatalf("complete check %+v, want a yielded probe", rep.EC)
	}
	ce := rep.Counterexample
	if ce == nil || (ce.Input != 7 && ce.Input != 15) {
		t.Fatalf("counterexample %+v, want column 7 or 15", ce)
	}
	if rep.NumSims <= DefaultR || rep.Exhaustive {
		t.Errorf("%d sims, exhaustive %v: want the R stimuli plus remaining columns, no exhaustive claim", rep.NumSims, rep.Exhaustive)
	}
	if f := dense.Fidelity(runDense(t, g, ce.Input), runDense(t, gp, ce.Input)); f > 1-1e-6 {
		t.Fatalf("counterexample |%b> does not replay on the dense simulator: fidelity %v", ce.Input, f)
	}
}

// TestFinishBySimulationWithdrawnProof: G' starts with a phase of 1e-9 on
// column 15 alone, which the stimuli miss.  The probe yields, column 15
// agrees only within the overlap tolerance, which withdraws the proof, and
// the complete check decides as ec.Check does.
func TestFinishBySimulationWithdrawnProof(t *testing.T) {
	phase := circuit.Gate{Kind: circuit.P, Target: 3, Target2: -1, Params: []float64{1e-9},
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2}}}
	g, gp := prepended(t, phase)
	want := ec.Check(g, gp, ec.Options{})
	rep := Check(g, gp, Options{Seed: missSeed, ECTimeout: time.Minute})
	if want.Verdict != ec.NotEquivalent || rep.Verdict != NotEquivalent || rep.DecidedBy != "ec:proportional" {
		t.Fatalf("flow: %v by %q; ec.Check: %v; want not equivalent by ec:proportional from both",
			rep.Verdict, rep.DecidedBy, want.Verdict)
	}
	if rep.NumSims != 16 || !rep.Exhaustive {
		t.Errorf("%d sims, exhaustive %v: want every column simulated before the complete check", rep.NumSims, rep.Exhaustive)
	}
	if rep.EC == nil || rep.EC.Cause != ec.CauseNone || rep.EC.GatesApplied != len(g.Gates)+len(gp.Gates) {
		t.Errorf("complete check %+v, want the run that decided", rep.EC)
	}
}

// TestFinishBySimulationDeadline: the remaining columns run under the
// complete check's ECTimeout, and outrunning it is an ec timeout.  The
// deadline runs from the probe's start, so sleeping one ECTimeout inside a
// remaining column passes it.
func TestFinishBySimulationDeadline(t *testing.T) {
	const timeout = time.Second
	g, gp := reversiblePair(t, 4, 1, false)
	var evals atomic.Int32
	evalHook = func(int) {
		if evals.Add(1) == DefaultR+2 { // the second remaining column
			time.Sleep(timeout)
		}
	}
	defer func() { evalHook = nil }()
	rep := Check(g, gp, Options{ECTimeout: timeout})
	if rep.Verdict != ProbablyEquivalent || rep.Cancelled || rep.DecidedBy != "" || rep.Exhaustive {
		t.Fatalf("%v by %q, cancelled %v, exhaustive %v; want an inconclusive timeout", rep.Verdict, rep.DecidedBy, rep.Cancelled, rep.Exhaustive)
	}
	if rep.NumSims <= DefaultR || rep.EC == nil || rep.EC.Cause != ec.CauseTimeout {
		t.Fatalf("%d sims, complete check %+v: want a yielded probe whose columns timed out", rep.NumSims, rep.EC)
	}
}

// TestFinishBySimulationCancelled cancels the flow while it simulates the
// remaining columns: the verdict is inconclusive, nothing claims
// exhaustive coverage, and every leased package goes back to the pool.
func TestFinishBySimulationCancelled(t *testing.T) {
	g, gp := reversiblePair(t, 4, 1, false)
	for _, parallel := range []int{0, 2} {
		t.Run(fmt.Sprintf("parallel%d", parallel), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var evals atomic.Int32
			evalHook = func(int) {
				if evals.Add(1) == DefaultR+2 { // the second remaining column
					cancel()
				}
			}
			defer func() { evalHook = nil }()
			pool := dd.NewPool(4)
			rep := Check(g, gp, Options{Context: ctx, Parallel: parallel, Pool: pool})
			if rep.Verdict != ProbablyEquivalent || !rep.Cancelled || rep.DecidedBy != "" {
				t.Fatalf("%v by %q, cancelled %v; want an inconclusive cancelled run", rep.Verdict, rep.DecidedBy, rep.Cancelled)
			}
			if rep.Exhaustive || rep.NumSims >= 16 {
				t.Errorf("exhaustive %v after %d sims, want no exhaustive claim", rep.Exhaustive, rep.NumSims)
			}
			if rep.EC == nil || rep.EC.Cause != ec.CauseYielded {
				t.Errorf("complete check %+v, want the yielded probe", rep.EC)
			}
			if st := pool.Stats(); st.Gets == 0 || st.Puts != st.Gets || st.Forgotten != 0 {
				t.Errorf("pool %+v: want every leased package returned", st)
			}
		})
	}
}

// TestFinishBySimulationParallelParity: two stimulus workers reach the same
// verdict, simulation count and counterexample as one.
func TestFinishBySimulationParallelParity(t *testing.T) {
	g, gp, seed := missedMutant(t)
	clean, routed := reversiblePair(t, 4, 1, false)
	for _, p := range []struct {
		name  string
		g, gp *circuit.Circuit
		seed  int64
	}{{"mutant", g, gp, seed}, {"clean", clean, routed, 0}} {
		seq := Check(p.g, p.gp, Options{Seed: p.seed})
		par := Check(p.g, p.gp, Options{Seed: p.seed, Parallel: 2})
		if seq.DecidedBy != "sim" {
			t.Fatalf("%s: decided by %q, want sim", p.name, seq.DecidedBy)
		}
		if par.Verdict != seq.Verdict || par.NumSims != seq.NumSims || par.DecidedBy != seq.DecidedBy || par.Exhaustive != seq.Exhaustive {
			t.Errorf("%s: parallel %v by %q after %d sims (exhaustive %v), sequential %v by %q after %d (exhaustive %v)",
				p.name, par.Verdict, par.DecidedBy, par.NumSims, par.Exhaustive, seq.Verdict, seq.DecidedBy, seq.NumSims, seq.Exhaustive)
		}
		if (par.Counterexample == nil) != (seq.Counterexample == nil) ||
			(seq.Counterexample != nil && par.Counterexample.Input != seq.Counterexample.Input) {
			t.Errorf("%s: parallel counterexample %+v, sequential %+v", p.name, par.Counterexample, seq.Counterexample)
		}
	}
}
