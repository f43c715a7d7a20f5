package dd

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Amplitude returns the amplitude <i|a> of a state DD.
func (p *Package) Amplitude(a VEdge, i uint64) complex128 {
	w := complex(1, 0)
	e := a
	for {
		if e.W == p.CN.Zero {
			return 0
		}
		w *= e.W.Complex()
		if e.N == 0 {
			return w
		}
		bit := (i >> uint(p.vLv(e.N))) & 1
		e = p.vE(e.N, int(bit))
	}
}

// MatrixEntry returns the entry U[r][c] of a matrix DD.
func (p *Package) MatrixEntry(m MEdge, r, c uint64) complex128 {
	w := complex(1, 0)
	e := m
	for {
		if e.W == p.CN.Zero {
			return 0
		}
		w *= e.W.Complex()
		if e.N == 0 {
			return w
		}
		v := p.mLv(e.N)
		rb := (r >> uint(v)) & 1
		cb := (c >> uint(v)) & 1
		e = p.mE(e.N, int(rb*2+cb))
	}
}

// Vector expands a state DD into a dense amplitude slice (2^n entries).
// Only valid for small n; callers must check the register size.
func (p *Package) Vector(a VEdge) []complex128 {
	if p.n > 24 {
		panic("dd: Vector expansion limited to 24 qubits")
	}
	out := make([]complex128, uint64(1)<<uint(p.n))
	var walk func(e VEdge, idx uint64, level int, w complex128)
	walk = func(e VEdge, idx uint64, level int, w complex128) {
		if e.W == p.CN.Zero {
			return
		}
		w *= e.W.Complex()
		if e.N == 0 {
			out[idx] = w
			return
		}
		v := p.vLv(e.N)
		walk(p.vE(e.N, 0), idx, v-1, w)
		walk(p.vE(e.N, 1), idx|uint64(1)<<uint(v), v-1, w)
	}
	walk(a, 0, p.n-1, 1)
	return out
}

// Matrix expands a matrix DD into a dense 2^n x 2^n matrix.  Only valid for
// small n.
func (p *Package) Matrix(m MEdge) [][]complex128 {
	if p.n > 12 {
		panic("dd: Matrix expansion limited to 12 qubits")
	}
	dim := uint64(1) << uint(p.n)
	out := make([][]complex128, dim)
	for r := uint64(0); r < dim; r++ {
		out[r] = make([]complex128, dim)
		for c := uint64(0); c < dim; c++ {
			out[r][c] = p.MatrixEntry(m, r, c)
		}
	}
	return out
}

// VSize returns the number of distinct nodes reachable from a vector edge.
func (p *Package) VSize(a VEdge) int {
	seen := make(map[VRef]bool)
	var walk func(n VRef)
	walk = func(n VRef) {
		if n == 0 || seen[n] {
			return
		}
		seen[n] = true
		walk(p.vA.ch[n][0])
		walk(p.vA.ch[n][1])
	}
	walk(a.N)
	return len(seen)
}

// MSize returns the number of distinct nodes reachable from a matrix edge.
func (p *Package) MSize(m MEdge) int {
	seen := make(map[MRef]bool)
	var walk func(n MRef)
	walk = func(n MRef) {
		if n == 0 || seen[n] {
			return
		}
		seen[n] = true
		for i := 0; i < 4; i++ {
			walk(p.mA.ch[n][i])
		}
	}
	walk(m.N)
	return len(seen)
}

// Sample draws a computational basis state from the probability distribution
// induced by the state DD, using the provided RNG.  The state need not be
// exactly normalized; probabilities are renormalized on the fly.
func (p *Package) Sample(a VEdge, rng *rand.Rand) uint64 {
	norms := make(map[VRef]float64)
	var normSq func(e VEdge) float64
	normSq = func(e VEdge) float64 {
		if e.W == p.CN.Zero {
			return 0
		}
		w2 := e.W.Abs2()
		if e.N == 0 {
			return w2
		}
		if v, ok := norms[e.N]; ok {
			return w2 * v
		}
		v := normSq(p.vE(e.N, 0)) + normSq(p.vE(e.N, 1))
		norms[e.N] = v
		return w2 * v
	}
	total := normSq(a)
	if total <= 0 {
		panic("dd: Sample of zero state")
	}
	var idx uint64
	e := a
	for e.N != 0 {
		s0 := normSq(p.vE(e.N, 0))
		s1 := normSq(p.vE(e.N, 1))
		denom := s0 + s1
		if denom <= 0 {
			panic("dd: inconsistent norms during sampling")
		}
		if rng.Float64() < s0/denom {
			e = p.vE(e.N, 0)
		} else {
			idx |= uint64(1) << uint(p.vLv(e.N))
			e = p.vE(e.N, 1)
		}
	}
	return idx
}

// FormatState renders the non-negligible amplitudes of a state DD in ket
// notation, largest magnitude first, at most limit entries.
func (p *Package) FormatState(a VEdge, limit int) string {
	if p.n > 24 {
		return fmt.Sprintf("<state on %d qubits, %d nodes>", p.n, p.VSize(a))
	}
	vec := p.Vector(a)
	type ent struct {
		idx uint64
		amp complex128
		mag float64
	}
	var ents []ent
	for i, c := range vec {
		re, im := real(c), imag(c)
		mag := re*re + im*im
		if mag > 1e-12 {
			ents = append(ents, ent{uint64(i), c, mag})
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].mag != ents[j].mag {
			return ents[i].mag > ents[j].mag
		}
		return ents[i].idx < ents[j].idx
	})
	if limit > 0 && len(ents) > limit {
		ents = ents[:limit]
	}
	var b strings.Builder
	for i, e := range ents {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "(%.4g%+.4gi)|%0*b>", real(e.amp), imag(e.amp), p.n, e.idx)
	}
	if b.Len() == 0 {
		return "0"
	}
	return b.String()
}
