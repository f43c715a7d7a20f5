package dd

import "qcec/internal/cn"

// Direct gate application.  ApplyGateV computes (U applied to target under
// controls) · x without ever materializing the full-register matrix DD of
// the gate.  The recursion descends the *state* DD only:
//
//   - Levels above every qubit the gate touches act as identity: descend
//     both cofactors, rebuild the node.  No matrix node is ever consulted.
//   - At a control level above the target, only the firing cofactor
//     (e[1] for a positive control, e[0] for a negative one) recurses; the
//     other cofactor passes through untouched.
//   - At the target level the 2×2 matrix acts on the cofactor pair, with
//     structured matrices short-circuited: diagonal matrices (Z, S, T, Rz,
//     phase) scale the cofactors through the interned weight table, and
//     antidiagonal matrices (X and its controlled forms) swap them.
//   - Controls *below* the target couple the cofactor mix to the firing
//     subspace.  Diagonal gates handle them by scaling only the firing
//     paths (ctlScale); general and antidiagonal gates split each target
//     cofactor into its firing projection and the untouched complement
//     (proj) and recombine.  The projections are computed structurally —
//     no control-projector matrix DD is built.
//
// Results are memoized in a dedicated compute table (see apEntry) keyed by
// (state node, gate id, opcode), where the gate id is the gate's entry in
// the package's gate registry (see registry.go).  Like every other compute
// table it is invalidated by garbage collection; the registry survives
// collections unless the collection flushes it.

// applyClass labels the structure of the 2×2 matrix being applied, detected
// from the interned entries (pointer comparison against the canonical zero).
type applyClass uint8

const (
	applyGeneric  applyClass = iota // dense 2×2: full cofactor combination
	applyDiagonal                   // w01 = w10 = 0: scale cofactors
	applyAntidiag                   // w00 = w11 = 0: swap cofactors
)

// Opcodes distinguishing the memoized helper functions that share the apply
// compute table.  All helpers are linear in the root weight, so entries are
// stored for weight-One roots and rescaled on hit.
const (
	apOpApply   uint8 = iota // applyRec: the gate itself
	apOpProj                 // proj: projection onto the firing control subspace
	apOpProjBar              // proj: complement of apOpProj
	apOpScale0               // ctlScale of the 0-cofactor weight (w00)
	apOpScale1               // ctlScale of the 1-cofactor weight (w11)
	apOpMix0                 // mixFire producing the result 0-cofactor
	apOpMix1                 // mixFire producing the result 1-cofactor
)

// apEntry is one apply-compute-table slot (pointer-free like every compute
// table entry; see arith.go).
type apEntry struct {
	x         VRef
	gid       uint32
	resN      VRef
	resW, gen uint32
	op        uint8
}

// apbEntry is one binary apply-compute-table slot (mixFire).  mixFire is
// linear in a joint scaling of both operands, so entries are stored with the
// first operand's weight factored out and keyed by the interned ratio of the
// operand weights; a hit rescales by the caller's first-operand weight.  Two
// operand pairs that differ only by a common factor — the typical state
// recurrence in phase-heavy circuits — therefore share one entry.
type apbEntry struct {
	x, y      VRef
	ratio     uint32 // weight ID
	gid       uint32
	resN      VRef
	resW, gen uint32
	op        uint8
}

// applySpec carries one ApplyGateV invocation through the recursion: the
// interned matrix entries, the target level, the control masks (lowCtl is
// the subset of controls strictly below the target) and the registry id.
type applySpec struct {
	w00, w01, w10, w11 *cn.Value
	target             int
	ctl, neg, lowCtl   uint64
	class              applyClass
	gid                uint32
}

func apHash(gid uint32, op uint8, n VRef) uint64 {
	return mix(mix(0xD6E8FEB86659FD93, uint64(gid)<<3|uint64(op)), uint64(n))
}

// applySpecOf translates a registered gate into the kernel's internal form
// (interned entries, control masks, structure class, registry id).
func (p *Package) applySpecOf(k gateKey) applySpec {
	s := applySpec{
		w00: p.CN.ByID(k.w00), w01: p.CN.ByID(k.w01),
		w10: p.CN.ByID(k.w10), w11: p.CN.ByID(k.w11),
		target: k.target,
		ctl:    k.posCtl | k.negCtl,
		neg:    k.negCtl,
		gid:    p.gateID(k),
	}
	s.lowCtl = s.ctl & (uint64(1)<<uint(k.target) - 1)
	zero := p.CN.Zero
	switch {
	case s.w01 == zero && s.w10 == zero:
		s.class = applyDiagonal
	case s.w00 == zero && s.w11 == zero:
		s.class = applyAntidiag
	default:
		s.class = applyGeneric
	}
	return s
}

// countApply updates the per-class kernel telemetry for one application.
func (p *Package) countApply(class applyClass) {
	p.applyCalls++
	switch class {
	case applyDiagonal:
		p.applyDiag++
	case applyAntidiag:
		p.applyPerm++
	default:
		p.applyGenericCt++
	}
}

// ApplyGateV applies the single-qubit operation u on target, under the given
// (positive or negative) controls, directly to the state DD x.  It is the
// hot-path replacement for MulMV(GateDD(u, target, controls), x): the two
// compute identical canonical edges on the same package, but ApplyGateV
// skips the matrix machinery entirely.  Callers applying the same gate many
// times should prepare it once (PrepareSpec/ApplyPrepared) to skip the
// per-call translation.
func (p *Package) ApplyGateV(u [2][2]complex128, target int, controls []Control, x VEdge) VEdge {
	s := p.applySpecOf(p.gateKeyOf(u, target, controls))
	p.faultPoint()
	p.countApply(s.class)
	if x.W == p.CN.Zero {
		return p.VZero()
	}
	return p.applyRec(&s, x)
}

// PreparedGate is a gate pre-translated for ApplyPrepared.  It holds interned
// weights and masks but no DD nodes, so it stays valid across garbage
// collections and needs no re-rooting; it is bound to the package that
// prepared it.  key and epoch let it re-register after a registry flush.
type PreparedGate struct {
	spec  applySpec
	key   gateKey
	epoch uint64
}

// GateSpec is a package-independent, immutable gate description: the raw
// 2×2 matrix plus placement, with none of the per-package translation
// (weight interning, control masks, registry ids) applied yet.  A GateSpec can
// be built once — paying any trigonometry of parameterized matrices a single
// time — and then shared read-only across any number of packages and
// goroutines; each package binds it locally with PrepareSpec.  Neither the
// spec nor its Controls slice may be mutated after it is shared.
type GateSpec struct {
	U        [2][2]complex128
	Target   int
	Controls []Control
}

// PrepareSpec binds a shared GateSpec to this package: it validates and
// translates the gate once, so the r-stimuli × |G|-gates simulation loop
// pays only the kernel recursion per application — not the weight
// interning, control-mask building and registry lookup, nor the
// trigonometry of reconstructing parameterized matrices.  The binding reads
// the spec without retaining it, so many packages may bind the same spec
// concurrently as long as each call runs on its own package's goroutine.
func (p *Package) PrepareSpec(g GateSpec) *PreparedGate {
	k := p.gateKeyOf(g.U, g.Target, g.Controls)
	return &PreparedGate{spec: p.applySpecOf(k), key: k, epoch: p.gateEpoch}
}

// ApplyPrepared applies a prepared gate to the state DD x (see ApplyGateV
// for semantics).
func (p *Package) ApplyPrepared(g *PreparedGate, x VEdge) VEdge {
	if g.epoch != p.gateEpoch {
		// A collection flushed the registry since this gate was prepared;
		// re-register so the id cannot alias a newer gate's memo entries.
		g.spec.gid = p.gateID(g.key)
		g.epoch = p.gateEpoch
	}
	p.faultPoint()
	p.countApply(g.spec.class)
	if x.W == p.CN.Zero {
		return p.VZero()
	}
	return p.applyRec(&g.spec, x)
}

// applyRec applies the gate to the sub-state x, whose root must sit at or
// above the gate's top level (guaranteed by the full-chain invariant for any
// register-wide state).
func (p *Package) applyRec(s *applySpec, x VEdge) VEdge {
	if x.W == p.CN.Zero {
		return p.VZero()
	}
	n := x.N
	if n == 0 {
		panic("dd: ApplyGateV state below the gate's levels")
	}
	h := apHash(s.gid, apOpApply, n)
	if ent := p.ap.slot(h); ent != nil && ent.gen == p.gen && ent.x == n && ent.gid == s.gid && ent.op == apOpApply {
		p.applyHits++
		return p.scaleV(p.vRes(ent.resN, ent.resW), x.W)
	}
	p.applyMisses++
	v := p.vLv(n)
	e0, e1 := p.vE(n, 0), p.vE(n, 1)
	var res VEdge
	switch {
	case v == s.target:
		res = p.applyTarget(s, n)
	case s.ctl>>uint(v)&1 == 1:
		// Control above the target: only the firing cofactor recurses.
		if s.neg>>uint(v)&1 == 1 {
			if r0 := p.applyRec(s, e0); r0 != e0 {
				res = p.makeVNode(v, r0, e1)
			} else {
				res = VEdge{W: p.CN.One, N: n} // subtree unchanged
			}
		} else {
			if r1 := p.applyRec(s, e1); r1 != e1 {
				res = p.makeVNode(v, e0, r1)
			} else {
				res = VEdge{W: p.CN.One, N: n}
			}
		}
	default:
		// Identity level: descend both cofactors.
		r0 := p.applyRec(s, e0)
		r1 := p.applyRec(s, e1)
		if r0 == e0 && r1 == e1 {
			res = VEdge{W: p.CN.One, N: n} // subtree unchanged
		} else {
			res = p.makeVNode(v, r0, r1)
		}
	}
	p.ap.put(h, apEntry{x: n, gid: s.gid, op: apOpApply, resN: res.N, resW: wid(res.W), gen: p.gen})
	return p.scaleV(res, x.W)
}

// applyTarget combines the target-level cofactors of n under the 2×2 matrix.
func (p *Package) applyTarget(s *applySpec, n VRef) VEdge {
	t := s.target
	e0, e1 := p.vE(n, 0), p.vE(n, 1)
	if s.lowCtl == 0 {
		switch s.class {
		case applyDiagonal:
			return p.makeVNode(t, p.scaleV(e0, s.w00), p.scaleV(e1, s.w11))
		case applyAntidiag:
			return p.makeVNode(t, p.scaleV(e1, s.w01), p.scaleV(e0, s.w10))
		default:
			r0 := p.AddV(p.scaleV(e0, s.w00), p.scaleV(e1, s.w01))
			r1 := p.AddV(p.scaleV(e0, s.w10), p.scaleV(e1, s.w11))
			return p.makeVNode(t, r0, r1)
		}
	}
	// Controls below the target gate the cofactor mix: the matrix acts only
	// on the subspace where all remaining controls fire.  Each result
	// cofactor is Pbar·e_i + P·(row_i of the matrix applied to the cofactor
	// pair), which mixFire computes in one simultaneous traversal.
	if s.class == applyDiagonal {
		return p.makeVNode(t,
			p.ctlScale(s, e0, s.w00, apOpScale0),
			p.ctlScale(s, e1, s.w11, apOpScale1))
	}
	if s.class == applyAntidiag {
		return p.makeVNode(t,
			p.mixFire(s, e0, p.scaleV(e1, s.w01), apOpMix0),
			p.mixFire(s, e1, p.scaleV(e0, s.w10), apOpMix1))
	}
	f0 := p.AddV(p.scaleV(e0, s.w00), p.scaleV(e1, s.w01))
	f1 := p.AddV(p.scaleV(e0, s.w10), p.scaleV(e1, s.w11))
	return p.makeVNode(t,
		p.mixFire(s, e0, f0, apOpMix0),
		p.mixFire(s, e1, f1, apOpMix1))
}

// remCtl returns the low controls at or below the root of x (0 for
// zero/terminal edges, which sit below every remaining control).
func (s *applySpec) remCtl(p *Package, n VRef) uint64 {
	if n == 0 {
		return 0
	}
	return s.lowCtl & (uint64(2)<<uint(p.vA.lv[n]) - 1)
}

// proj projects x onto the subspace where all remaining low controls fire
// (bar=false), or onto its complement (bar=true).  The two projections sum
// to x, which is what applyTarget relies on.
func (p *Package) proj(s *applySpec, x VEdge, bar bool) VEdge {
	if x.W == p.CN.Zero {
		return p.VZero()
	}
	n := x.N
	if s.remCtl(p, n) == 0 {
		// Below every remaining control: the whole sub-state fires.
		if bar {
			return p.VZero()
		}
		return x
	}
	op := apOpProj
	if bar {
		op = apOpProjBar
	}
	h := apHash(s.gid, op, n)
	if ent := p.ap.slot(h); ent != nil && ent.gen == p.gen && ent.x == n && ent.gid == s.gid && ent.op == op {
		p.applyHits++
		return p.scaleV(p.vRes(ent.resN, ent.resW), x.W)
	}
	p.applyMisses++
	v := p.vLv(n)
	var res VEdge
	if s.ctl>>uint(v)&1 == 1 {
		fire := 1
		if s.neg>>uint(v)&1 == 1 {
			fire = 0
		}
		pr := p.proj(s, p.vE(n, fire), bar)
		other := p.VZero()
		if bar {
			other = p.vE(n, 1-fire) // a failed control keeps the whole branch
		}
		if fire == 0 {
			res = p.makeVNode(v, pr, other)
		} else {
			res = p.makeVNode(v, other, pr)
		}
	} else {
		res = p.makeVNode(v, p.proj(s, p.vE(n, 0), bar), p.proj(s, p.vE(n, 1), bar))
	}
	p.ap.put(h, apEntry{x: n, gid: s.gid, op: op, resN: res.N, resW: wid(res.W), gen: p.gen})
	return p.scaleV(res, x.W)
}

// mixFire returns Pbar·a + P·b, where P projects onto the subspace in which
// all remaining low controls fire and Pbar is its complement.  Walking both
// operands together replaces the four separate projections and the edge-wise
// additions a naive Pbar·a + P·b would need: at a control level the firing
// cofactors of a and b keep mixing while the non-firing cofactor is taken
// from a alone, and below the last control the answer is simply b.
func (p *Package) mixFire(s *applySpec, a, b VEdge, op uint8) VEdge {
	zero := p.CN.Zero
	if a.W == zero {
		return p.proj(s, b, false)
	}
	if b.W == zero {
		return p.proj(s, a, true)
	}
	if s.remCtl(p, a.N) == 0 {
		return b // no controls remain: P is the identity, Pbar vanishes
	}
	// Factor a.W out of both operands: entries are stored for a weight-One
	// first operand and a ratio-weighted second, and rescaled on hit.
	ratio := p.CN.Div(b.W, a.W)
	rid := wid(ratio)
	n, m := a.N, b.N
	h := mix(mix(mix(mix(0x8A91A6D40BF42040, uint64(s.gid)<<3|uint64(op)), uint64(n)), uint64(m)), uint64(rid))
	if ent := p.apb.slot(h); ent != nil && ent.gen == p.gen && ent.x == n && ent.y == m &&
		ent.ratio == rid && ent.gid == s.gid && ent.op == op {
		p.applyHits++
		return p.scaleV(p.vRes(ent.resN, ent.resW), a.W)
	}
	p.applyMisses++
	v := p.vLv(n)
	var res VEdge
	if s.ctl>>uint(v)&1 == 1 {
		fire := 1
		if s.neg>>uint(v)&1 == 1 {
			fire = 0
		}
		pr := p.mixFire(s, p.vE(n, fire), p.scaleV(p.vE(m, fire), ratio), op)
		other := p.vE(n, 1-fire) // a failed control keeps a's branch
		if fire == 0 {
			res = p.makeVNode(v, pr, other)
		} else {
			res = p.makeVNode(v, other, pr)
		}
	} else {
		res = p.makeVNode(v,
			p.mixFire(s, p.vE(n, 0), p.scaleV(p.vE(m, 0), ratio), op),
			p.mixFire(s, p.vE(n, 1), p.scaleV(p.vE(m, 1), ratio), op))
	}
	p.apb.put(h, apbEntry{x: n, y: m, ratio: rid, gid: s.gid, op: op, resN: res.N, resW: wid(res.W), gen: p.gen})
	return p.scaleV(res, a.W)
}

// ctlScale scales the firing subspace of x by w and leaves the complement
// untouched — the effect of a diagonal matrix entry under the remaining low
// controls.  The op parameter keeps the two diagonal entries' memo entries
// apart.
func (p *Package) ctlScale(s *applySpec, x VEdge, w *cn.Value, op uint8) VEdge {
	if x.W == p.CN.Zero {
		return p.VZero()
	}
	if w == p.CN.One {
		return x // scaling the firing subspace by 1 is the identity
	}
	n := x.N
	if s.remCtl(p, n) == 0 {
		return p.scaleV(x, w)
	}
	h := apHash(s.gid, op, n)
	if ent := p.ap.slot(h); ent != nil && ent.gen == p.gen && ent.x == n && ent.gid == s.gid && ent.op == op {
		p.applyHits++
		return p.scaleV(p.vRes(ent.resN, ent.resW), x.W)
	}
	p.applyMisses++
	v := p.vLv(n)
	e0, e1 := p.vE(n, 0), p.vE(n, 1)
	var res VEdge
	if s.ctl>>uint(v)&1 == 1 {
		if s.neg>>uint(v)&1 == 1 {
			res = p.makeVNode(v, p.ctlScale(s, e0, w, op), e1)
		} else {
			res = p.makeVNode(v, e0, p.ctlScale(s, e1, w, op))
		}
	} else {
		r0 := p.ctlScale(s, e0, w, op)
		r1 := p.ctlScale(s, e1, w, op)
		if r0 == e0 && r1 == e1 {
			res = VEdge{W: p.CN.One, N: n}
		} else {
			res = p.makeVNode(v, r0, r1)
		}
	}
	p.ap.put(h, apEntry{x: n, gid: s.gid, op: op, resN: res.N, resW: wid(res.W), gen: p.gen})
	return p.scaleV(res, x.W)
}
