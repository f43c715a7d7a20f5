package core

import (
	"path/filepath"
	"testing"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/errinject"
	"qcec/internal/mapping"
)

// checkAtSimFloor runs Check with the simulation stage's collection floor
// lowered to floor (1 collects at every safe point) and restores the floor
// as soon as the run returns, so the next run of a test is unpressured.
func checkAtSimFloor(floor int, g1, g2 *circuit.Circuit, opts Options) Report {
	defer func(old int) { simGCFloor = old }(simGCFloor)
	simGCFloor = floor
	return Check(g1, g2, opts)
}

// TestArenaCheckParity checks that the arena node storage is invisible to
// end-to-end results across every slot-recycling regime.  For each seed
// circuit, both for an equivalent pair and an error-injected one, a fresh
// package, a pooled package on its second (recycled-slab) job, and a run
// under constant GC pressure — where freed slots are reallocated to new
// nodes mid-simulation many times over — must agree bit-for-bit: same
// verdict, same simulation count, same counterexample, and the exact same
// fidelities (the computation is deterministic; any drift means a stale ref
// read a recycled slot).
func TestArenaCheckParity(t *testing.T) {
	const r = 6
	for _, path := range seedCircuitFiles(t) {
		g := loadSeedCircuit(t, path)
		type pair struct {
			name string
			gp   *circuit.Circuit
		}
		pairs := []pair{{name: filepath.Base(path), gp: g.Clone()}}
		if bad, inj, err := errinject.InjectAny(g, 1); err == nil {
			pairs = append(pairs, pair{name: filepath.Base(path) + "+" + inj.String(), gp: bad})
		}
		for _, pr := range pairs {
			pr := pr
			t.Run(pr.name, func(t *testing.T) {
				base := Options{R: r, Seed: 1, SkipEC: true}
				ref := Check(g, pr.gp, base)
				if ref.Err != nil {
					t.Fatalf("reference run failed: %v", ref.Err)
				}

				// Pooled: the first job grows the arenas, the second runs
				// entirely on recycled slots of the same slabs.
				pool := dd.NewPool(2)
				pooled := base
				pooled.Pool = pool
				if warm := Check(g, pr.gp, pooled); warm.Err != nil {
					t.Fatalf("pool warm-up run failed: %v", warm.Err)
				}
				if st := pool.Stats(); st.Idle == 0 {
					t.Fatalf("warm-up returned nothing to the pool: %+v", st)
				}
				recycled := Check(g, pr.gp, pooled)
				if st := pool.Stats(); st.Reuses == 0 {
					t.Fatalf("second run did not reuse the pooled package: %+v", st)
				}

				// GC pressure: collect after nearly every allocation, so the
				// run continuously frees and reallocates arena slots.
				pressed := checkAtSimFloor(32, g, pr.gp, base)

				for _, alt := range []struct {
					name string
					got  Report
				}{
					{"pooled-recycled", recycled},
					{"gc-pressure", pressed},
				} {
					got := alt.got
					if got.Err != nil {
						t.Errorf("%s: run failed: %v", alt.name, got.Err)
						continue
					}
					if got.Verdict != ref.Verdict {
						t.Errorf("%s: verdict %v, fresh run said %v", alt.name, got.Verdict, ref.Verdict)
					}
					if got.NumSims != ref.NumSims {
						t.Errorf("%s: %d sims, fresh run used %d", alt.name, got.NumSims, ref.NumSims)
					}
					if got.MinFidelity != ref.MinFidelity || got.AvgFidelity != ref.AvgFidelity {
						t.Errorf("%s: fidelities (%g, %g), fresh run (%g, %g) — not bit-identical",
							alt.name, got.MinFidelity, got.AvgFidelity, ref.MinFidelity, ref.AvgFidelity)
					}
					switch {
					case (got.Counterexample == nil) != (ref.Counterexample == nil):
						t.Errorf("%s: counterexample presence mismatch (%v vs %v)",
							alt.name, got.Counterexample, ref.Counterexample)
					case got.Counterexample != nil:
						if got.Counterexample.Input != ref.Counterexample.Input {
							t.Errorf("%s: counterexample |%b>, fresh run found |%b>",
								alt.name, got.Counterexample.Input, ref.Counterexample.Input)
						}
						if got.Counterexample.Fidelity != ref.Counterexample.Fidelity {
							t.Errorf("%s: counterexample fidelity %g, fresh run %g",
								alt.name, got.Counterexample.Fidelity, ref.Counterexample.Fidelity)
						}
					}
				}
			})
		}
	}
}

// TestPermutedPairSurvivesCollections: a pair declaring an output
// permutation simulates with an un-permutation matrix built before the
// stimuli run, and every collection during a run must keep it alive.  Left
// unrooted, a collection mid-run freed its nodes and the comparison read
// recycled slots (a "MulMV level mismatch" panic, or silently a different
// matrix).  A run collecting at almost every gate must match one that
// barely collects, for the routed pair and for an error-injected copy.
func TestPermutedPairSurvivesCollections(t *testing.T) {
	g := loadSeedCircuit(t, filepath.Join("..", "..", "circuits", "qft8.qasm"))
	routed, err := mapping.Map(g, mapping.Options{Arch: mapping.Linear(g.N), DecomposeSwaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if routed.OutputPerm == nil {
		t.Fatal("routing restored the layout; no permutation to exercise")
	}
	bad, _, err := errinject.InjectAny(routed.Circuit, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gp := range []*circuit.Circuit{routed.Circuit, bad} {
		base := Options{R: 8, Seed: 5, SkipEC: true, OutputPerm: routed.OutputPerm}
		ref := Check(g, gp, base)
		got := checkAtSimFloor(1, g, gp, base)
		if ref.Err != nil || got.Err != nil {
			t.Fatalf("runs failed: reference %v, collecting %v", ref.Err, got.Err)
		}
		if got.DD.GCRuns <= ref.DD.GCRuns {
			t.Fatalf("pressured run collected %d times, reference %d", got.DD.GCRuns, ref.DD.GCRuns)
		}
		if got.Verdict != ref.Verdict || got.NumSims != ref.NumSims || got.MinFidelity != ref.MinFidelity {
			t.Errorf("collecting run: %v after %d sims (min fidelity %g), reference %v after %d (%g)",
				got.Verdict, got.NumSims, got.MinFidelity, ref.Verdict, ref.NumSims, ref.MinFidelity)
		}
	}
}

// TestSimulationStageKeepsItsGarbage: the simulation stage's packages
// collect at simGCFloor, not at the complete check's floor.  On an
// equivalent Clifford pair the stage creates several times
// dd.DefaultGCThreshold nodes, and G' replays G's gates on each stimulus:
// at simGCFloor nothing is collected and the replay is served from the
// compute tables, while at the complete check's floor the stage collects
// and rebuilds what it dropped.  Verdicts and fidelities agree either way.
func TestSimulationStageKeepsItsGarbage(t *testing.T) {
	g := bench.RandomClifford(10, 200, 3)
	base := Options{R: 10, Seed: 1, SkipEC: true}
	got := Check(g, g.Clone(), base)
	ref := checkAtSimFloor(dd.DefaultGCThreshold, g, g.Clone(), base)
	if got.Err != nil || ref.Err != nil {
		t.Fatalf("runs failed: %v, %v", got.Err, ref.Err)
	}
	t.Logf("simulation floor: %d collections, %d nodes created; complete-check floor: %d, %d",
		got.DD.GCRuns, got.DD.NodesCreated, ref.DD.GCRuns, ref.DD.NodesCreated)
	if got.DD.NodesCreated <= 2*dd.DefaultGCThreshold {
		t.Fatalf("stage created only %d nodes; too few to tell the floors apart", got.DD.NodesCreated)
	}
	if got.DD.GCRuns != 0 {
		t.Errorf("simulation stage collected %d times under a %d-node floor", got.DD.GCRuns, simGCFloor)
	}
	if ref.DD.GCRuns == 0 || ref.DD.NodesCreated <= got.DD.NodesCreated {
		t.Errorf("at the complete check's floor: %d collections, %d nodes created, want collections and more nodes than %d",
			ref.DD.GCRuns, ref.DD.NodesCreated, got.DD.NodesCreated)
	}
	if got.Verdict != ref.Verdict || got.NumSims != ref.NumSims || got.MinFidelity != ref.MinFidelity {
		t.Errorf("floors disagree: %v after %d sims (min fidelity %g) vs %v after %d (%g)",
			got.Verdict, got.NumSims, got.MinFidelity, ref.Verdict, ref.NumSims, ref.MinFidelity)
	}
}
