package core

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/dense"
	"qcec/internal/ec"
	"qcec/internal/errinject"
	"qcec/internal/portfolio"
)

// denseColumns returns the columns of c's unitary, simulated on
// internal/dense, with each output relabelled by perm (wire perm[q] of c's
// output becomes wire q; nil is the identity), so that a pair related by
// the output permutation perm has equal columns.
func denseColumns(c *circuit.Circuit, perm []int) []dense.State {
	x := circuit.Gate{Kind: circuit.X}.Matrix()
	cols := make([]dense.State, 1<<c.N)
	for col := range cols {
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
		if perm != nil {
			out := make(dense.State, len(s))
			for y, a := range s {
				z := 0
				for q, p := range perm {
					z |= (y >> p & 1) << q
				}
				out[z] = a
			}
			s = out
		}
		cols[col] = s
	}
	return cols
}

// oracleTol is the dense oracle's bound on a column's distance from the
// scalar relation: above the 1e-11 offsets the DD weight tolerance (1e-10)
// absorbs, below the 1e-9 ones it tells apart.
const oracleTol = 1e-10

// denseVerdict decides a pair from its dense columns: U' = c·U with c = 1
// is Equivalent, with another unit scalar c strict NotEquivalent and up to
// phase EquivalentUpToGlobalPhase, and no scalar relation NotEquivalent.
func denseVerdict(u, v []dense.State, upToPhase bool) Verdict {
	c := dense.InnerProduct(u[0], v[0])
	for x := range u {
		var d float64
		for i := range u[x] {
			e := cmplx.Abs(v[x][i] - c*u[x][i])
			d += e * e
		}
		if math.Sqrt(d) > oracleTol {
			return NotEquivalent
		}
	}
	switch {
	case cmplx.Abs(c-1) < oracleTol:
		return Equivalent
	case upToPhase:
		return EquivalentUpToGlobalPhase
	}
	return NotEquivalent
}

// cliffordPairs builds the oracle's pairs from one random Clifford
// circuit g: a padded clone, global-phase-only copies (Z·X·Z·X = −I and
// S·X·S·X = i·I), a relabelled copy, every errinject mutant that stays
// Clifford, and RZ/P rotations of π/2 against copies offset by 1e-11,
// 1e-9 and 1e-6 on one wire.
type oraclePair struct {
	name   string
	g1, g2 *circuit.Circuit
	perm   []int
}

func cliffordPairs(g *circuit.Circuit, seed int64) []oraclePair {
	n := g.N
	w := n - 1
	pairs := []oraclePair{
		{name: "padded clone", g1: g, g2: g.Clone().H(0).H(0).S(w).Sdg(w)},
		{name: "-I", g1: g, g2: g.Clone().Z(w).X(w).Z(w).X(w)},
		{name: "i·I", g1: g, g2: g.Clone().S(0).X(0).S(0).X(0)},
	}
	if n > 1 {
		perm := make([]int, n)
		for q := range perm {
			perm[q] = q
		}
		perm[0], perm[w] = w, 0
		pairs = append(pairs, oraclePair{name: "relabelled", g1: g, g2: g.Clone().Swap(0, w), perm: perm})
	}
	angleTol := circuit.CliffordAngleTolerance(0)
	for _, kind := range errinject.AllKinds() {
		if m, inj, err := errinject.Inject(g, kind, seed); err == nil && circuit.IsClifford(m, angleTol) {
			pairs = append(pairs, oraclePair{name: inj.String(), g1: g, g2: m})
		}
	}
	for _, eps := range []float64{1e-11, 1e-9, 1e-6} {
		pairs = append(pairs,
			oraclePair{name: fmt.Sprintf("rz offset %g", eps), g1: g.Clone().RZ(math.Pi/2, w), g2: g.Clone().RZ(math.Pi/2+eps, w)},
			oraclePair{name: fmt.Sprintf("p offset %g", eps), g1: g.Clone().S(w), g2: g.Clone().Phase(math.Pi/2+eps, w)})
	}
	return pairs
}

// TestCliffordPairsMatchDense is the differential oracle for the Clifford
// family: every pair, in both phase modes, through the pipeline (whose
// complete check of a Clifford pair is the tableau), the stab prover and
// ec.Check, must get the verdict internal/dense unitaries give, and every
// counterexample must replay on internal/dense.  Up to phase the stab
// prover proves on the tableau alone, which cannot see the scalar, so there
// its proof is EquivalentUpToGlobalPhase also when the scalar is 1.  The
// 1e-9 and 1e-6 offset rows pin the Clifford angle snap at the weight
// tolerance: snapped at the agreement tolerance (1e-6), the tableau proves
// them equivalent while the unitaries differ.
func TestCliffordPairsMatchDense(t *testing.T) {
	agreeTol := cn.AgreementTolerance(0)
	tableauRuns := 0
	for n := 1; n <= 6; n++ {
		for seed := int64(1); seed <= 2; seed++ {
			g := bench.RandomClifford(n, 12*n, seed)
			for _, pr := range cliffordPairs(g, seed) {
				u, v := denseColumns(pr.g1, nil), denseColumns(pr.g2, pr.perm)
				for _, upToPhase := range []bool{false, true} {
					want := denseVerdict(u, v, upToPhase)
					label := fmt.Sprintf("n=%d seed=%d %s (up to phase %v)", n, seed, pr.name, upToPhase)
					judge := func(checker string, got Verdict, ce *uint64) {
						t.Helper()
						if got != want && !(checker == "stab" && upToPhase && want == Equivalent && got == EquivalentUpToGlobalPhase) {
							t.Errorf("%s: %s says %v, the unitaries %v", label, checker, got, want)
						}
						if got != NotEquivalent || ce == nil {
							return
						}
						overlap := dense.InnerProduct(u[*ce], v[*ce])
						if cn.StatesAgree(overlap, upToPhase, agreeTol) {
							t.Errorf("%s: %s's counterexample |%b> does not replay (overlap %v)", label, checker, *ce, overlap)
						}
					}

					opts := Options{UpToGlobalPhase: upToPhase, OutputPerm: pr.perm}
					rep := Check(pr.g1, pr.g2, opts)
					var ce *uint64
					if rep.Counterexample != nil {
						ce = &rep.Counterexample.Input
					}
					judge("pipeline", rep.Verdict, ce)
					if rep.DecidedBy == "stab" {
						tableauRuns++
					}

					p, err := NewProver("stab", opts)
					if err != nil {
						t.Fatal(err)
					}
					if out := p.Run(context.Background(), pr.g1, pr.g2); out.Stop != portfolio.StopError {
						judge("stab", map[portfolio.Verdict]Verdict{
							portfolio.Inconclusive:              ProbablyEquivalent,
							portfolio.Equivalent:                Equivalent,
							portfolio.EquivalentUpToGlobalPhase: EquivalentUpToGlobalPhase,
							portfolio.NotEquivalent:             NotEquivalent,
						}[out.Verdict], out.Counterexample)
					}

					res := ec.Check(pr.g1, pr.g2, ec.Options{UpToGlobalPhase: upToPhase, OutputPerm: pr.perm})
					judge("ec", map[ec.Verdict]Verdict{
						ec.Equivalent:                Equivalent,
						ec.EquivalentUpToGlobalPhase: EquivalentUpToGlobalPhase,
						ec.NotEquivalent:             NotEquivalent,
						ec.TimedOut:                  ProbablyEquivalent,
					}[res.Verdict], res.Counterexample)
				}
			}
		}
	}
	if tableauRuns == 0 {
		t.Error("the pipeline's tableau decided no pair")
	}
	t.Logf("%d pipeline checks decided by the tableau", tableauRuns)
}
