package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/decompose"
	"qcec/internal/dense"
	"qcec/internal/errinject"
	"qcec/internal/fingerprint"
	"qcec/internal/mapping"
	"qcec/internal/qasm"
	"qcec/internal/server"
	"qcec/internal/stab"
)

// A question is one serialized circuit pair plus its ground truth, decided
// during set-up by a prover independent of the daemon's flow.
type question struct {
	g, gp string // OpenQASM 2.0 sources
	truth string // expected wire verdict under default options
	gates int    // gate count of both circuits
	fp    fingerprint.Digest
}

// A body is one serialized POST /v1/check request.
type body struct {
	data     []byte
	truth    string
	fresh    bool // a question the daemon has not answered before
	question int  // index into workload.questions
}

// workload is everything a run sends, generated from the seed before the
// daemon starts.
type workload struct {
	journal   bool // run qcecd with -journal-dir and key new questions
	questions []question
	bodies    []body
	warmup    []int         // bodies answered before timing starts
	sequence  []int         // bodies in send order
	oracle    time.Duration // wall time the ground-truth oracle took
}

var workloadNames = []string{"ci-verify", "ci-rerun", "clifford-sim"}

// Request budgets per second of run time: upper estimates of each workload's
// throughput on two workers, so a run rarely exhausts its sequence.  A run
// that does stops early; rates are computed over the time it measured.
const (
	verifyPerSecond   = 12
	cliffordPerSecond = 40
	rerunPerSecond    = 100
	rerunFreshEvery   = 20 // one new question per this many rerun requests
	rerunWarm         = 10 // questions answered during the rerun warm-up: one deck
	rerunVariants     = 4  // cosmetic variants sent per warm question
)

// buildWorkload generates the named workload for a run of the given length.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	var qs []question
	var oracle time.Duration
	var err error
	switch name {
	case "ci-verify":
		qs, oracle, err = compiledQuestions(seed, seconds*verifyPerSecond)
	case "clifford-sim":
		qs, oracle, err = cliffordQuestions(seed, seconds*cliffordPerSecond)
	case "ci-rerun":
		return rerunWorkload(seed, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	w := &workload{oracle: oracle}
	for i := range qs {
		w.addQuestion(qs[i], nil)
		w.sequence = append(w.sequence, i)
	}
	return w, nil
}

// addQuestion appends q and one body per source transform (nil = verbatim),
// returning the index of the first body.
func (w *workload) addQuestion(q question, variants []func(string) string) int {
	qi := len(w.questions)
	w.questions = append(w.questions, q)
	first := len(w.bodies)
	if variants == nil {
		variants = []func(string) string{nil}
	}
	for _, v := range variants {
		g, gp := q.g, q.gp
		if v != nil {
			g, gp = v(g), v(gp)
		}
		w.bodies = append(w.bodies, body{
			data:     marshalRequest(g, gp),
			truth:    q.truth,
			fresh:    true,
			question: qi,
		})
	}
	return first
}

func marshalRequest(g, gp string) []byte {
	data, err := json.Marshal(server.CheckRequest{G: g, Gp: gp})
	if err != nil {
		panic(err) // strings always marshal
	}
	return data
}

// rerunWorkload is the warm-cache CI rerun: a warm-up answers rerunWarm
// compiler-output questions; the timed sequence repeats them as cosmetic
// variants (same fingerprint, different bytes) and mixes in one new
// question per rerunFreshEvery requests.
func rerunWorkload(seed int64, seconds int) (*workload, error) {
	total := seconds * rerunPerSecond
	fresh := total/rerunFreshEvery + 1
	qs, oracle, err := compiledQuestions(seed, rerunWarm+fresh)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := &workload{journal: true, oracle: oracle}
	var hits []int
	for i := 0; i < rerunWarm; i++ {
		vs := make([]func(string) string, rerunVariants)
		for k := range vs {
			vs[k] = cosmeticVariant(rng.Int63())
		}
		first := w.addQuestion(qs[i], append([]func(string) string{nil}, vs...))
		w.warmup = append(w.warmup, first)
		for k := 1; k <= rerunVariants; k++ {
			w.bodies[first+k].fresh = false
			hits = append(hits, first+k)
		}
	}
	// Repeats are dealt from shuffled rounds of every variant, so each warm
	// question recurs equally often.
	var deal []int
	next := rerunWarm
	for len(w.sequence) < total && next < len(qs) {
		block := make([]int, 0, rerunFreshEvery)
		for k := 0; k < rerunFreshEvery-1; k++ {
			if len(deal) == 0 {
				deal = append(deal, hits...)
				rng.Shuffle(len(deal), func(i, j int) { deal[i], deal[j] = deal[j], deal[i] })
			}
			block = append(block, deal[0])
			deal = deal[1:]
		}
		block = append(block, w.addQuestion(qs[next], nil))
		next++
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		w.sequence = append(w.sequence, block...)
	}
	return w, nil
}

// cosmeticVariant returns a source transform that changes the bytes of an
// OpenQASM program but not its parsed circuit: register name, gate-name
// aliases, whitespace and comments.
func cosmeticVariant(seed int64) func(string) string {
	rng := rand.New(rand.NewSource(seed))
	reg := fmt.Sprintf("r%d", rng.Intn(1000))
	cx := []string{"CX ", "cnot "}[rng.Intn(2)]
	spaced := rng.Intn(2) == 0
	comment := fmt.Sprintf(" // rerun %d\n", rng.Intn(1_000_000))
	return func(src string) string {
		src = strings.ReplaceAll(src, "q[", reg+"[")
		src = strings.ReplaceAll(src, "\ncx ", "\n"+cx)
		src = strings.ReplaceAll(src, "\np(", "\nu1(")
		if spaced {
			src = strings.ReplaceAll(src, ",", " , ")
		}
		return strings.Replace(src, ";\n", ";"+comment, 1)
	}
}

// compiledQuestions generates n distinct compiler-output questions: random
// reversible netlists and relabelled QFTs lowered to CX and routed onto
// linear or ring couplings with the layout restored, three in ten of them
// error-injected mutants.  Each block of ten has the same family, coupling
// and mutant mix, so runs under different seeds carry the same load shape.
// The six clean 5-bit netlists per block are the slow checks (a complete DD
// check of about 10k gates); the other four finish an order of magnitude
// sooner, so the latency median and 90th percentile both fall inside the
// slow mode.
func compiledQuestions(seed int64, n int) ([]question, time.Duration, error) {
	deck := []slot{
		{"rev5", 0, false, false}, {"rev5", 0, false, true}, {"rev5", 0, false, false},
		{"rev5", 0, false, true}, {"rev5", 0, false, false}, {"rev5", 0, false, true},
		{"qft", 0, false, false},
		{"rev5", 0, true, false}, {"rev5", 0, true, true}, {"rev4", 0, true, true},
	}
	rng := rand.New(rand.NewSource(seed))
	slots := make([]slot, 0, n)
	for len(slots) < n {
		for _, k := range rng.Perm(len(deck)) {
			slots = append(slots, deck[k])
		}
	}
	return drawQuestions(rng, slots[:n], compiledQuestion)
}

// A slot is one position of a workload's question deck.
type slot struct {
	family string // rev5, rev4, qft or clifford
	qubits int    // register size of a clifford slot
	mutant bool
	ring   bool // route a compiled slot onto a ring rather than a line
}

// A candidate is a generated question whose ground truth is still open.
type candidate struct {
	q      question
	oracle func() (string, error) // decides q.truth; "" or a nil oracle rejects the candidate
}

// truths memoizes oracle verdicts by pair fingerprint.  An untraced run sets
// up several times from one seed, and the oracle decides each pair once.
var truths sync.Map

// drawQuestions fills every slot with a question from gen, drawing seeds
// from rng in slot order and redrawing slots whose candidate gen rejected,
// whose question repeats an earlier fingerprint or whose oracle verdict is
// not the one the slot wants (a mutant that turned out equivalent).
// Generation and the oracle each run on all CPUs; the result depends only on
// rng's state, not on scheduling.  It also returns the wall time spent in
// the oracle, which set-up time leaves out.
func drawQuestions(rng *rand.Rand, slots []slot, gen func(slot, int64) (candidate, error)) ([]question, time.Duration, error) {
	out := make([]question, len(slots))
	pending := make([]int, len(slots))
	for i := range pending {
		pending[i] = i
	}
	seen := map[fingerprint.Digest]bool{}
	var oracleTime time.Duration
	for len(pending) > 0 {
		seeds := make([]int64, len(pending))
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		cands := make([]candidate, len(pending))
		errs := make([]error, len(pending))
		parallel(len(pending), func(i int) { cands[i], errs[i] = gen(slots[pending[i]], seeds[i]) })
		if err := errors.Join(errs...); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		parallel(len(pending), func(i int) {
			c := &cands[i]
			if c.oracle == nil {
				return
			}
			if v, ok := truths.Load(c.q.fp); ok {
				c.q.truth = v.(string)
				return
			}
			if c.q.truth, errs[i] = c.oracle(); errs[i] == nil {
				truths.Store(c.q.fp, c.q.truth)
			}
		})
		oracleTime += time.Since(start)
		if err := errors.Join(errs...); err != nil {
			return nil, 0, err
		}
		var again []int
		for i, c := range cands {
			if c.q.truth != wantVerdict(slots[pending[i]].mutant) || seen[c.q.fp] {
				again = append(again, pending[i])
				continue
			}
			seen[c.q.fp] = true
			out[pending[i]] = c.q
		}
		pending = again
	}
	return out, oracleTime, nil
}

// parallel calls f(0) … f(n-1) on all CPUs and waits for them.
func parallel(n int, f func(int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// rev5 netlists outside this band of CX-level gate counts are drawn again
// before routing.  It holds about the middle 40% of RandomReversible's 5-bit
// sizes.  Parse and check costs follow the gate count, and a ci-rerun run
// repeats only ten questions, so without the band its hit latency moved by
// over 10% from seed to seed.
const rev5MinGates, rev5MaxGates = 3300, 3900

// compiledQuestion builds one compiler-output pair; its oracle runs dense
// unitaries.
func compiledQuestion(s slot, seed int64) (candidate, error) {
	family, mutant := s.family, s.mutant
	rng := rand.New(rand.NewSource(seed))
	var src *circuit.Circuit
	var err error
	switch family {
	case "rev5", "rev4":
		bits := 5
		if family == "rev4" {
			bits = 4
		}
		src, err = bench.RandomReversible(bits, rng.Int63())
		if err != nil {
			return candidate{}, err
		}
	case "qft":
		n := 5 + rng.Intn(3)
		src = relabel(bench.QFT(n), rng.Perm(n))
	}
	g := decompose.Circuit(src, decompose.LevelCX)
	if family == "rev5" && (len(g.Gates) < rev5MinGates || len(g.Gates) > rev5MaxGates) {
		return candidate{}, nil
	}
	arch := mapping.Linear(g.N)
	if s.ring {
		arch = mapping.Ring(g.N)
	}
	mapped, err := mapping.Map(g, mapping.Options{Arch: arch, RestoreLayout: true, DecomposeSwaps: true})
	if err != nil {
		return candidate{}, fmt.Errorf("routing %s: %w", family, err)
	}
	gp := mapped.Circuit
	if mutant {
		gp, _, err = errinject.InjectAny(gp, rng.Int63())
		if err != nil {
			return candidate{}, err
		}
	}
	q, err := newQuestion(family, g, gp)
	return candidate{q, func() (string, error) { return denseVerdict(g, gp) }}, err
}

// cliffordQuestions generates n random Clifford pairs on 10 to 14 qubits with
// about 20·n gates each, paired with themselves or (three in ten) with a
// Clifford-preserving error-injected mutant.
func cliffordQuestions(seed int64, n int) ([]question, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	slots := make([]slot, 0, n)
	for len(slots) < n {
		mutants := rng.Perm(10)[:3]
		for k := 0; k < 10; k++ {
			mutant := k == mutants[0] || k == mutants[1] || k == mutants[2]
			slots = append(slots, slot{"clifford", 10 + k%5, mutant, false})
		}
	}
	return drawQuestions(rng, slots[:n], cliffordQuestion)
}

// cliffordQuestion builds one Clifford pair; its oracle is the stabilizer
// tableau.
func cliffordQuestion(s slot, seed int64) (candidate, error) {
	mutant := s.mutant
	rng := rand.New(rand.NewSource(seed))
	g := bench.RandomClifford(s.qubits, 20*s.qubits, rng.Int63())
	gp := g
	if mutant {
		var err error
		gp, _, err = errinject.InjectAny(g, rng.Int63())
		if err != nil {
			return candidate{}, err
		}
	}
	q, err := newQuestion(s.family, g, gp)
	return candidate{q, func() (string, error) { return stabVerdict(g, gp, mutant) }}, err
}

func wantVerdict(mutant bool) string {
	if mutant {
		return server.VerdictNotEquivalent
	}
	return server.VerdictEquivalent
}

// newQuestion serializes a pair and fingerprints it.  The serialization is
// lossless (the tests parse every body back to the same fingerprint), so
// oracles may decide the in-memory circuits.
func newQuestion(family string, g, gp *circuit.Circuit) (question, error) {
	gs, err := qasm.WriteString(g)
	if err != nil {
		return question{}, fmt.Errorf("serializing %s: %w", family, err)
	}
	gps, err := qasm.WriteString(gp)
	if err != nil {
		return question{}, fmt.Errorf("serializing %s: %w", family, err)
	}
	return question{
		g:     gs,
		gp:    gps,
		gates: len(g.Gates) + len(gp.Gates),
		fp:    fingerprint.Pair(g, gp),
	}, nil
}

func parsePair(g, gp string) (*circuit.Circuit, *circuit.Circuit, error) {
	pg, err := qasm.Parse(g)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing g: %w", err)
	}
	pgp, err := qasm.Parse(gp)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing gp: %w", err)
	}
	return pg.Circuit, pgp.Circuit, nil
}

// relabel returns c with qubit q renamed perm[q].
func relabel(c *circuit.Circuit, perm []int) *circuit.Circuit {
	out := circuit.New(c.N, c.Name)
	for _, g := range c.Gates {
		g.Target = perm[g.Target]
		if g.Kind == circuit.SWAP {
			g.Target2 = perm[g.Target2]
		}
		ctl := make([]circuit.Control, len(g.Controls))
		for i, k := range g.Controls {
			ctl[i] = circuit.Control{Qubit: perm[k.Qubit], Neg: k.Neg}
		}
		g.Controls = ctl
		out.Add(g)
	}
	return out
}

// oracleTol bounds the amplitude error of the dense oracle's comparison.
const oracleTol = 1e-6

// denseVerdict decides a pair of at most 10 qubits from explicit unitaries:
// equivalent when every column agrees, not_equivalent when the columns
// differ by more than a common phase.  A pair equal only up to a global
// phase is reported as such; the generators never want one.
func denseVerdict(c1, c2 *circuit.Circuit) (string, error) {
	if c1.N != c2.N || c1.N > 10 {
		return "", fmt.Errorf("dense oracle: %d/%d qubits", c1.N, c2.N)
	}
	ops1, ops2 := denseOps(c1), denseOps(c2)
	var phase complex128
	strict := true
	for in := uint64(0); in < 1<<uint(c1.N); in++ {
		a, b := denseRun(c1.N, ops1, in), denseRun(c2.N, ops2, in)
		if !dense.ApproxEqual(a, b, oracleTol) {
			strict = false
		}
		if phase == 0 {
			phase = overlapPhase(a, b)
		}
		for i := range a {
			if cmplx.Abs(a[i]*phase-b[i]) > oracleTol {
				return server.VerdictNotEquivalent, nil
			}
		}
	}
	if strict {
		return server.VerdictEquivalent, nil
	}
	return server.VerdictEquivalentUpToPhas, nil
}

// overlapPhase returns the unit-modulus phase of <a|b> (1 when orthogonal).
func overlapPhase(a, b dense.State) complex128 {
	ip := dense.InnerProduct(a, b)
	if cmplx.Abs(ip) < oracleTol {
		return 1
	}
	return ip / complex(cmplx.Abs(ip), 0)
}

// denseOp is one gate in the dense simulator's terms.
type denseOp struct {
	u      [2][2]complex128
	target int
	ctl    []dense.Control
}

// denseOps translates c once, so each of its 2^n column runs reuses it.
func denseOps(c *circuit.Circuit) []denseOp {
	x := [2][2]complex128{{0, 1}, {1, 0}}
	ops := make([]denseOp, 0, len(c.Gates))
	for _, g := range c.Gates {
		if g.Kind == circuit.SWAP {
			a, b := g.Target, g.Target2
			ops = append(ops,
				denseOp{x, b, []dense.Control{{Qubit: a}}},
				denseOp{x, a, []dense.Control{{Qubit: b}}},
				denseOp{x, b, []dense.Control{{Qubit: a}}})
			continue
		}
		ctl := make([]dense.Control, len(g.Controls))
		for i, k := range g.Controls {
			ctl[i] = dense.Control{Qubit: k.Qubit, Neg: k.Neg}
		}
		ops = append(ops, denseOp{g.Matrix(), g.Target, ctl})
	}
	return ops
}

func denseRun(n int, ops []denseOp, input uint64) dense.State {
	s := dense.BasisState(n, input)
	for _, op := range ops {
		s.ApplyGate(op.u, op.target, op.ctl)
	}
	return s
}

// stabVerdict decides a Clifford pair with the stabilizer tableau.  The
// tableau proves equivalence only up to global phase, so an unmutated pair
// (byte-identical circuits) is strictly equivalent by construction and a
// mutant the tableau cannot separate is reported up to phase and dropped.
func stabVerdict(c1, c2 *circuit.Circuit, mutant bool) (string, error) {
	tol := circuit.CliffordAngleTolerance(0)
	ops1, _, ok1 := circuit.LowerClifford(c1, tol)
	ops2, _, ok2 := circuit.LowerClifford(c2, tol)
	if !ok1 || !ok2 {
		return "", nil // a non-Clifford mutant: the caller draws again
	}
	res := stab.Check(context.Background(), time.Time{}, c1.N, ops1, ops2, nil)
	switch {
	case res.Verdict == stab.NotEquivalent:
		return server.VerdictNotEquivalent, nil
	case res.Verdict == stab.EquivalentUpToPhase && !mutant:
		return server.VerdictEquivalent, nil
	case res.Verdict == stab.EquivalentUpToPhase:
		return server.VerdictEquivalentUpToPhas, nil
	}
	return "", fmt.Errorf("stabilizer oracle: %v", res.Verdict)
}
