package dd

import "fmt"

// The gate registry.  Every distinct gate a package sees — through GateDD,
// ApplyGateV or a prepared gate — is registered once under a small id.  The
// id keys the apply kernel's compute tables in place of the full gate, and
// the registry memoizes the gate's full-register matrix DD the first time
// GateDD builds it, so the complete check builds each distinct gate once.
// Neither the map nor the slots hold a pointer, so Go's collector never
// scans them.
//
// The registry survives collections, with its DDs marked as roots, and a
// pooled package's Reset keeps it warm for the next job.  Only a collection
// may flush it (see collect), because the same collection invalidates every
// compute-table entry that names a freed id; the flush bumps gateEpoch,
// which makes prepared gates re-register before their next application.

// gateKey identifies a gate: the IDs of the four interned entries of its
// 2×2 matrix, the target qubit, and the positive/negative control sets as
// bitmasks (exact for MaxQubits = 64).  Because the entries are interned
// through the package's cn.Table, two matrices equal up to the weight
// tolerance share a key — the same equivalence the DD itself applies to
// edge weights.
type gateKey struct {
	w00, w01, w10, w11 uint32
	target             int
	posCtl, negCtl     uint64
}

// gateSlot is a registered gate's matrix DD as a node ref and weight ID;
// built is false until GateDD has constructed it.
type gateSlot struct {
	n     MRef
	w     uint32
	built bool
}

// gateRegistryLimit bounds the registry population a collection keeps.  A
// circuit contributes at most one entry per distinct (matrix, target,
// controls) triple, so real workloads stay far below it; the bound only
// guards against pathological streams of parameterized gates.
const gateRegistryLimit = 1 << 16

// gateKeyOf validates a gate's target and controls and interns its matrix
// entries.
func (p *Package) gateKeyOf(u [2][2]complex128, target int, controls []Control) gateKey {
	if target < 0 || target >= p.n {
		panic(fmt.Sprintf("dd: gate target %d out of range", target))
	}
	// Validate via the control bitmasks (exact for MaxQubits = 64): range,
	// target collision and duplicates, without allocating.
	var pos, neg uint64
	for _, c := range controls {
		if c.Qubit < 0 || c.Qubit >= p.n || c.Qubit == target {
			panic(fmt.Sprintf("dd: invalid control qubit %d", c.Qubit))
		}
		bit := uint64(1) << uint(c.Qubit)
		if (pos|neg)&bit != 0 {
			panic(fmt.Sprintf("dd: duplicate control qubit %d", c.Qubit))
		}
		if c.Neg {
			neg |= bit
		} else {
			pos |= bit
		}
	}
	return gateKey{
		w00: wid(p.CN.Lookup(u[0][0])), w01: wid(p.CN.Lookup(u[0][1])),
		w10: wid(p.CN.Lookup(u[1][0])), w11: wid(p.CN.Lookup(u[1][1])),
		target: target, posCtl: pos, negCtl: neg,
	}
}

// gateID returns the registry id of a gate, registering it on first sight.
// Ids start at 1 and index gates[id-1].
func (p *Package) gateID(k gateKey) uint32 {
	if id, ok := p.gateIDs[k]; ok {
		return id
	}
	p.gates = append(p.gates, gateSlot{})
	id := uint32(len(p.gates))
	p.gateIDs[k] = id
	return id
}

// flushGates empties the registry.  Only a collection may call it, after
// which the compute tables that interpret the freed ids are invalid anyway.
func (p *Package) flushGates() {
	if len(p.gateIDs) == 0 {
		return
	}
	clear(p.gateIDs)
	p.gates = p.gates[:0]
	p.gateBuilt = 0
	p.gateEpoch++
	p.gateFlushes++
}

// GateDD returns the n-qubit matrix DD of a single-qubit operation u applied
// to target, optionally controlled (positively or negatively) by the given
// qubits.  The result is memoized in the gate registry (see Stats's
// GateHits/GateMisses); a miss falls through to the bottom-up construction
// used by the JKU package.
func (p *Package) GateDD(u [2][2]complex128, target int, controls []Control) MEdge {
	k := p.gateKeyOf(u, target, controls)
	p.faultPoint()
	id := p.gateID(k)
	if g := p.gates[id-1]; g.built {
		p.gateHits++
		return p.mRes(g.n, g.w)
	}
	p.gateMisses++
	e := p.buildGateDD(u, target, controls)
	p.gates[id-1] = gateSlot{n: e.N, w: wid(e.W), built: true}
	p.gateBuilt++
	return e
}
