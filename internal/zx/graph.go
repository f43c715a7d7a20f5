// Package zx implements equivalence checking of quantum circuits by
// ZX-calculus rewriting: both circuits are translated into a single
// ZX-diagram of G'·G⁻¹, the diagram is brought into graph-like form (all
// spiders Z, all internal edges Hadamard) and simplified with spider fusion,
// Hopf cancellation, local complementation and pivoting (the
// Duncan–Kissinger–Perdrix–van de Wetering procedure).  If the diagram
// reduces to the identity wiring, the circuits are equivalent up to a global
// phase.
//
// Like the rewriting checker (internal/ecrw), this method is *sound but
// incomplete*: a diagram that does not fully reduce is merely inconclusive.
// On Clifford-heavy miters it is far more powerful than gate-level
// cancellation, because fusion and complementation see through commutations
// and Hadamard conjugations that defeat peephole matching.  Global scalar
// factors are dropped throughout, so a positive verdict means equivalence up
// to global phase.
package zx

import (
	"fmt"
	"math"
	"slices"
)

// vertex kinds.
type vkind int8

const (
	kindBoundaryIn vkind = iota
	kindBoundaryOut
	kindSpider // Z spider (the graph-like form has no X spiders)
)

// edges carries the multiplicity of plain and Hadamard edges between a
// vertex pair.
type edges struct {
	plain int
	had   int
}

type pair struct{ a, b int }

func mkPair(u, v int) pair {
	if u > v {
		u, v = v, u
	}
	return pair{u, v}
}

// Graph is a ZX-diagram under construction/simplification.  Vertices are
// dense integer ids; removed vertices stay allocated but disconnected.
type Graph struct {
	kind  []vkind
	phase []float64 // spider phase in radians, mod 2π
	qubit []int     // for boundaries: which circuit wire
	alive []bool

	adj map[pair]*edges
	nbr []map[int]bool // neighbour sets (any edge type)

	// cancel, when non-nil, is polled between simplification rounds; when it
	// returns true, Simplify stops early (soundly: an unfinished reduction is
	// merely Inconclusive).
	cancel func() bool

	// err records the first structural violation encountered while building
	// or rewriting the diagram (e.g. a self-loop on a boundary vertex).  The
	// rewrite rules bail out once it is set, and CheckCtx surfaces it as a
	// checker error — recording instead of panicking keeps a malformed input
	// from crossing the prover boundary as a crash.
	err error

	// stats
	fusions, hopfs, lcomps, pivots int
}

// MalformedError reports a structurally invalid diagram operation, reachable
// from degenerate circuit input.
type MalformedError struct {
	// Vertex is the offending vertex id.
	Vertex int
	// Msg describes the violation.
	Msg string
}

// Error formats the violation.
func (e *MalformedError) Error() string {
	return fmt.Sprintf("zx: %s (vertex %d)", e.Msg, e.Vertex)
}

// fail records the first structural violation; later ones are dropped.
func (g *Graph) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// Err returns the first structural violation recorded on the diagram, or nil.
func (g *Graph) Err() error { return g.err }

// NewGraph returns an empty diagram.
func NewGraph() *Graph {
	return &Graph{adj: make(map[pair]*edges)}
}

// SetCancel installs (or with nil removes) a cooperative cancellation hook
// polled by Simplify between rounds.  The typical hook closes over a
// context.Context: func() bool { return ctx.Err() != nil }.
func (g *Graph) SetCancel(f func() bool) { g.cancel = f }

// cancelledNow reports whether the cancel hook requests a stop.
func (g *Graph) cancelledNow() bool { return g.cancel != nil && g.cancel() }

const twoPi = 2 * math.Pi

func normPhase(p float64) float64 {
	p = math.Mod(p, twoPi)
	if p < 0 {
		p += twoPi
	}
	if p > twoPi-1e-12 {
		p = 0
	}
	return p
}

// phaseIs reports whether p equals target modulo 2π within tolerance.
func phaseIs(p, target float64) bool {
	d := math.Abs(normPhase(p) - normPhase(target))
	return d < 1e-9 || math.Abs(d-twoPi) < 1e-9
}

func (g *Graph) addVertex(k vkind, phase float64, qubit int) int {
	id := len(g.kind)
	g.kind = append(g.kind, k)
	g.phase = append(g.phase, normPhase(phase))
	g.qubit = append(g.qubit, qubit)
	g.alive = append(g.alive, true)
	g.nbr = append(g.nbr, make(map[int]bool))
	return id
}

// NumSpiders returns the number of live interior spiders.
func (g *Graph) NumSpiders() int {
	n := 0
	for v := range g.kind {
		if g.alive[v] && g.kind[v] == kindSpider {
			n++
		}
	}
	return n
}

// addEdge inserts an edge of the given type (had=true for a Hadamard edge),
// resolving parallel-edge rules between spiders eagerly:
//
//   - two Hadamard edges between spiders cancel (Hopf law, scalar dropped),
//   - a plain self-loop vanishes, a Hadamard self-loop adds π to the phase.
func (g *Graph) addEdge(u, v int, had bool) {
	if u == v {
		if g.kind[u] != kindSpider {
			g.fail(&MalformedError{Vertex: u, Msg: "self-loop on boundary"})
			return
		}
		if had {
			g.phase[u] = normPhase(g.phase[u] + math.Pi)
		}
		// plain self-loop: scalar only
		return
	}
	p := mkPair(u, v)
	e := g.adj[p]
	if e == nil {
		e = &edges{}
		g.adj[p] = e
	}
	if had {
		e.had++
	} else {
		e.plain++
	}
	g.normalizeEdge(u, v, e)
	if e.plain == 0 && e.had == 0 {
		delete(g.adj, p)
		delete(g.nbr[u], v)
		delete(g.nbr[v], u)
	} else {
		g.nbr[u][v] = true
		g.nbr[v][u] = true
	}
}

// normalizeEdge applies the parallel-edge rules valid between two Z spiders.
// Edges touching a boundary are left untouched (boundaries carry exactly one
// edge by construction).
func (g *Graph) normalizeEdge(u, v int, e *edges) {
	if g.kind[u] != kindSpider || g.kind[v] != kindSpider {
		return
	}
	if e.had >= 2 {
		g.hopfs += e.had / 2
		e.had %= 2
	}
	// plain parallels between Z spiders collapse into one: fusing along one
	// of them turns the rest into plain self-loops, which are scalars.
	if e.plain > 1 {
		e.plain = 1
	}
	// plain + H in parallel: fusing along the plain edge turns the H edge
	// into an H self-loop, i.e. a π phase flip on the fused spider.  This is
	// handled during fusion; here we only keep the counts canonical.
}

func (g *Graph) edgeBetween(u, v int) *edges {
	return g.adj[mkPair(u, v)]
}

// neighbours returns v's neighbours in ascending order.  Every rule whose
// outcome depends on which neighbour it takes first iterates this way
// rather than over the map, so a reduction is the same on every run.
func (g *Graph) neighbours(v int) []int {
	ns := make([]int, 0, len(g.nbr[v]))
	for w := range g.nbr[v] {
		ns = append(ns, w)
	}
	slices.Sort(ns)
	return ns
}

// removeVertex disconnects and kills a vertex.
func (g *Graph) removeVertex(v int) {
	for w := range g.nbr[v] {
		delete(g.adj, mkPair(v, w))
		delete(g.nbr[w], v)
	}
	g.nbr[v] = make(map[int]bool)
	g.alive[v] = false
}

// fuse merges spider v into spider u along a plain edge (spider law):
// phases add, v's edges transfer to u.
func (g *Graph) fuse(u, v int) {
	g.fusions++
	g.phase[u] = normPhase(g.phase[u] + g.phase[v])
	// Remove the connecting edge(s) first: plain ones vanish, each parallel
	// Hadamard edge becomes an H self-loop on the fused spider = π phase.
	if e := g.edgeBetween(u, v); e != nil {
		for i := 0; i < e.had; i++ {
			g.phase[u] = normPhase(g.phase[u] + math.Pi)
		}
		delete(g.adj, mkPair(u, v))
		delete(g.nbr[u], v)
		delete(g.nbr[v], u)
	}
	// Transfer remaining edges.
	for w := range g.nbr[v] {
		e := g.edgeBetween(v, w)
		for i := 0; i < e.plain; i++ {
			g.addEdge(u, w, false)
		}
		for i := 0; i < e.had; i++ {
			g.addEdge(u, w, true)
		}
		delete(g.adj, mkPair(v, w))
		delete(g.nbr[w], v)
	}
	g.nbr[v] = make(map[int]bool)
	g.alive[v] = false
}

// fusePlainEdges exhaustively applies the spider law along plain
// spider-spider edges, producing the graph-like form.  One pass in vertex
// order suffices, since fusing into u only changes u's edges.
func (g *Graph) fusePlainEdges() {
	for u := range g.kind {
		for g.alive[u] && g.kind[u] == kindSpider {
			if g.cancelledNow() {
				return
			}
			v := -1
			for w := range g.nbr[u] {
				if (v < 0 || w < v) && g.kind[w] == kindSpider && g.edgeBetween(u, w).plain > 0 {
					v = w
				}
			}
			if v < 0 {
				break
			}
			g.fuse(u, v)
		}
	}
}

// removeIdentities drops phase-0 spiders of degree 2 whose two edges can be
// combined (plain∘plain = plain, plain∘H = H, H∘H = plain).
func (g *Graph) removeIdentities() bool {
	changed := false
	for v := range g.kind {
		if !g.alive[v] || g.kind[v] != kindSpider || !phaseIs(g.phase[v], 0) {
			continue
		}
		if len(g.nbr[v]) != 2 {
			continue
		}
		var ws []int
		for w := range g.nbr[v] {
			ws = append(ws, w)
		}
		e0 := g.edgeBetween(v, ws[0])
		e1 := g.edgeBetween(v, ws[1])
		if e0.plain+e0.had != 1 || e1.plain+e1.had != 1 {
			continue
		}
		had := (e0.had + e1.had) == 1 // H∘plain = H; H∘H = plain; plain∘plain = plain
		g.removeVertex(v)
		g.addEdge(ws[0], ws[1], had)
		changed = true
	}
	return changed
}

// interior reports whether v is a spider all of whose edges are Hadamard
// edges to other spiders (the precondition of local complementation and
// pivoting).
func (g *Graph) interior(v int) bool {
	if !g.alive[v] || g.kind[v] != kindSpider {
		return false
	}
	for w := range g.nbr[v] {
		if g.kind[w] != kindSpider {
			return false
		}
		e := g.edgeBetween(v, w)
		if e.plain != 0 {
			return false
		}
	}
	return true
}

// toggleH flips the Hadamard edge between two distinct spiders.
func (g *Graph) toggleH(u, v int) {
	if u == v {
		return
	}
	p := mkPair(u, v)
	e := g.adj[p]
	if e == nil {
		g.addEdge(u, v, true)
		return
	}
	if e.had > 0 {
		e.had--
		if e.plain == 0 && e.had == 0 {
			delete(g.adj, p)
			delete(g.nbr[u], v)
			delete(g.nbr[v], u)
		}
		return
	}
	g.addEdge(u, v, true)
}

// localComplement removes an interior spider with phase ±π/2: the
// neighbourhood is complemented and each neighbour's phase decreases by the
// spider's phase.
func (g *Graph) localComplement(v int) {
	g.lcomps++
	ph := g.phase[v]
	var ns []int
	for w := range g.nbr[v] {
		ns = append(ns, w)
	}
	for i := 0; i < len(ns); i++ {
		g.phase[ns[i]] = normPhase(g.phase[ns[i]] - ph)
		for j := i + 1; j < len(ns); j++ {
			g.toggleH(ns[i], ns[j])
		}
	}
	g.removeVertex(v)
}

// pivot removes an adjacent interior pair u,v with Pauli phases (0 or π):
// the three neighbour groups (exclusive to u, exclusive to v, common) are
// pairwise complemented and phases propagate.
func (g *Graph) pivot(u, v int) {
	g.pivots++
	phU, phV := g.phase[u], g.phase[v]
	var onlyU, onlyV, both []int
	for w := range g.nbr[u] {
		if w == v {
			continue
		}
		if g.nbr[v][w] {
			both = append(both, w)
		} else {
			onlyU = append(onlyU, w)
		}
	}
	for w := range g.nbr[v] {
		if w == u || g.nbr[u][w] {
			continue
		}
		onlyV = append(onlyV, w)
	}
	complement := func(as, bs []int) {
		for _, a := range as {
			for _, b := range bs {
				g.toggleH(a, b)
			}
		}
	}
	complement(onlyU, onlyV)
	complement(onlyU, both)
	complement(onlyV, both)
	for _, w := range onlyU {
		g.phase[w] = normPhase(g.phase[w] + phV)
	}
	for _, w := range onlyV {
		g.phase[w] = normPhase(g.phase[w] + phU)
	}
	for _, w := range both {
		g.phase[w] = normPhase(g.phase[w] + phU + phV + math.Pi)
	}
	g.removeVertex(u)
	g.removeVertex(v)
}

// pauliPush applies the π-copy rule to an interior Z(π) spider v of degree
// two: the segment u —H— Z(π) —H— w is an X(π) gate on the wire, which
// commutes through the spider w by negating w's phase and re-emitting an
// X(π) on each of w's other legs.  It returns true when the rule applied.
//
// The push is only taken towards a neighbour with a non-Pauli phase (so a
// lone π migrates towards phases it can actually act on, and two pushes
// cannot oscillate between a pair of Pauli spiders forever).
func (g *Graph) pauliPush(v int) bool {
	if !g.interior(v) || !phaseIs(g.phase[v], math.Pi) || len(g.nbr[v]) != 2 {
		return false
	}
	ns := g.neighbours(v)
	for _, w := range ns {
		if e := g.edgeBetween(v, w); e.had != 1 || e.plain != 0 {
			return false
		}
	}
	pick := -1
	for i, w := range ns {
		if !phaseIs(g.phase[w], 0) && !phaseIs(g.phase[w], math.Pi) {
			pick = i
			break
		}
	}
	if pick < 0 {
		return false
	}
	w, u := ns[pick], ns[1-pick]
	// Snapshot and validate w's other legs before mutating anything: a
	// doubled leg (possible only transiently) makes us decline the rule.
	type leg struct {
		x   int
		had bool
	}
	var legs []leg
	for _, x := range g.neighbours(w) {
		if x == v {
			continue
		}
		e := g.edgeBetween(w, x)
		if e.plain+e.had != 1 {
			return false
		}
		legs = append(legs, leg{x: x, had: e.had == 1})
	}
	g.removeVertex(v)
	g.phase[w] = normPhase(-g.phase[w])
	for _, l := range legs {
		delete(g.adj, mkPair(w, l.x))
		delete(g.nbr[w], l.x)
		delete(g.nbr[l.x], w)
		m := g.addVertex(kindSpider, math.Pi, -1)
		g.addEdge(w, m, true)
		g.addEdge(m, l.x, !l.had) // H followed by the leg's type composes
	}
	// The consumed entry: u —H—(v)—H— w collapses to a plain wire.
	g.addEdge(u, w, false)
	return true
}

// Simplify runs the full reduction to a fixpoint: fusion, identity removal,
// local complementation on interior ±π/2 spiders, pivoting on interior
// Pauli pairs, and π-pushing for lone interior Pauli spiders on a wire.  It
// reports whether the cancel hook (SetCancel) stopped the reduction before
// the fixpoint.
func (g *Graph) Simplify() (cancelled bool) {
	if g.err != nil {
		return false
	}
	g.fusePlainEdges()
	budget := 16*len(g.kind) + 1024 // safety net against rule ping-pong
	for {
		if budget <= 0 || g.err != nil {
			return false
		}
		if g.cancelledNow() {
			return true
		}
		budget--
		changed := false
		if g.removeIdentities() {
			changed = true
		}
		// Local complementation.
		for v := range g.kind {
			if g.interior(v) && (phaseIs(g.phase[v], math.Pi/2) || phaseIs(g.phase[v], 3*math.Pi/2)) {
				g.localComplement(v)
				changed = true
			}
		}
		// Pivoting on interior Pauli pairs.
	pivotSearch:
		for v := range g.kind {
			if !g.interior(v) || !(phaseIs(g.phase[v], 0) || phaseIs(g.phase[v], math.Pi)) {
				continue
			}
			for _, w := range g.neighbours(v) {
				if w > v && g.interior(w) && (phaseIs(g.phase[w], 0) || phaseIs(g.phase[w], math.Pi)) {
					g.pivot(v, w)
					changed = true
					continue pivotSearch
				}
			}
		}
		// π-pushing.
		for v := range g.kind {
			if g.alive[v] && g.pauliPush(v) {
				changed = true
			}
		}
		g.fusePlainEdges()
		if !changed {
			return false
		}
	}
}

// Stats summarizes the rewrites applied.
func (g *Graph) Stats() string {
	return fmt.Sprintf("fusions=%d hopf=%d lcomp=%d pivot=%d spiders=%d",
		g.fusions, g.hopfs, g.lcomps, g.pivots, g.NumSpiders())
}
