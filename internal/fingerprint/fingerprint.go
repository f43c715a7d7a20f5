// Package fingerprint computes canonical digests of circuits and circuit
// pairs for verdict memoization.
//
// The serving layer (internal/server) re-verifies the same compiled artifact
// thousands of times when many users run the same compilation flow; a stable
// content address of the *question* lets it answer repeats from a cache
// instead of paying the DD price again.  The digest therefore has to identify
// the checking problem, not the bytes that encoded it:
//
//   - It hashes the parsed, normalized IR (internal/circuit), never QASM
//     source text, so whitespace, comments, register names and gate-name
//     aliases (cx/CX/cnot, p/u1, ccx/toffoli, ...) cannot split the cache —
//     the parser already folds all of those into one Gate value.
//   - Within a gate, controls are hashed in sorted qubit order and SWAP
//     targets in sorted order, matching the gate's symmetries.
//   - A pair digest is invariant under swapping the two circuits, because
//     equivalence is symmetric: check(G, G') and check(G', G) are the same
//     question.
//
// The digest deliberately does NOT normalize beyond a gate's own symmetries:
// circuits that differ in gate order or decomposition hash differently even
// when unitarily equivalent — deciding *that* is the checker's job, and a
// fingerprint collision between inequivalent circuits would turn the verdict
// cache into a soundness bug.  SHA-256 keeps accidental collisions out of
// reach.
package fingerprint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"qcec/internal/circuit"
)

// Digest is a circuit or pair digest (SHA-256).
type Digest [sha256.Size]byte

// String returns the digest in lower-case hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// version tags the serialization layout; bump it whenever the byte layout
// below changes so stale external caches can never alias across layouts.
const version = 1

// hashBatch is the size of the writes that feed the canonical byte stream
// to SHA-256: gates are appended to a buffer, which is hashed and reset
// once it holds hashBatch bytes, instead of one small write per field.
const hashBatch = 4096

// Circuit returns the canonical digest of one circuit's normalized IR.
func Circuit(c *circuit.Circuit) Digest {
	h := sha256.New()
	buf := make([]byte, 0, 2*hashBatch)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.N))
	for _, g := range c.Gates {
		buf = appendGate(buf, g)
		if len(buf) >= hashBatch {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var d Digest
	h.Sum(d[:0])
	return d
}

// Pair returns the order-invariant digest of a circuit pair: Pair(a, b) ==
// Pair(b, a), and two pairs collide only if both member digests match.
func Pair(a, b *circuit.Circuit) Digest {
	da, db := Circuit(a), Circuit(b)
	// Order the member digests, not the circuits: comparing the canonical
	// serializations byte-wise gives a total order that both argument orders
	// agree on.
	if bytes.Compare(db[:], da[:]) < 0 {
		da, db = db, da
	}
	var both [2 * sha256.Size]byte
	copy(both[:], da[:])
	copy(both[sha256.Size:], db[:])
	return sha256.Sum256(both[:])
}

// appendGate appends one gate's canonical serialization to buf.  Every field
// is a fixed-width little-endian word, so the encoding is prefix-free per
// gate (kind name length precedes the name; counts precede lists).
func appendGate(buf []byte, g circuit.Gate) []byte {
	u64 := binary.LittleEndian.AppendUint64
	// The gate kind is hashed by its canonical lower-case name rather than
	// the Kind integer, so the digest survives enum reordering between
	// builds of the checker.
	name := g.Kind.String()
	buf = u64(buf, uint64(len(name)))
	buf = append(buf, name...)

	// SWAP is symmetric in its two targets; hash them in sorted order so
	// `swap a,b` and `swap b,a` collide on purpose.
	t1, t2 := g.Target, g.Target2
	if g.Kind == circuit.SWAP && t2 < t1 {
		t1, t2 = t2, t1
	}
	buf = u64(buf, uint64(int64(t1)))
	buf = u64(buf, uint64(int64(t2)))

	// Controls in sorted qubit order (a control set is a set); polarity is
	// part of the element.
	ctls := g.Controls
	if !controlsSorted(ctls) {
		var small [4]circuit.Control
		ctls = append(small[:0], ctls...)
		sortControls(ctls)
	}
	buf = u64(buf, uint64(len(ctls)))
	for _, c := range ctls {
		buf = u64(buf, uint64(int64(c.Qubit)))
		if c.Neg {
			buf = u64(buf, 1)
		} else {
			buf = u64(buf, 0)
		}
	}

	buf = u64(buf, uint64(len(g.Params)))
	for _, p := range g.Params {
		buf = u64(buf, canonicalFloatBits(p))
	}

	if g.Kind == circuit.Custom {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				buf = u64(buf, canonicalFloatBits(real(g.Mat[i][j])))
				buf = u64(buf, canonicalFloatBits(imag(g.Mat[i][j])))
			}
		}
	}
	return buf
}

// canonicalFloatBits returns the IEEE-754 bits of f with the two
// representation artifacts folded out: -0 hashes as +0 (they are the same
// rotation angle) and every NaN payload hashes as one canonical NaN.
func canonicalFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

func controlsSorted(cs []circuit.Control) bool {
	for i := 1; i < len(cs); i++ {
		if cs[i].Qubit < cs[i-1].Qubit {
			return false
		}
	}
	return true
}

func sortControls(cs []circuit.Control) {
	for i := 1; i < len(cs); i++ { // insertion sort; control lists are tiny
		for j := i; j > 0 && cs[j].Qubit < cs[j-1].Qubit; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
