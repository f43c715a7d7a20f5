package cn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// mapTable is the complex table as it was before the open-addressing bucket
// table: a Go map from bucket to the bucket's values in insertion order.  It
// is kept here, and only here, as the oracle the production Table must match
// value for value.
type mapTable struct {
	tol       float64
	buckets   map[bucketKey][]*Value
	nextID    uint64
	zero, one *Value

	lookups, hits int64
}

func newMapTable(tol float64) *mapTable {
	t := &mapTable{tol: tol, buckets: make(map[bucketKey][]*Value, 1024)}
	t.zero = t.insert(complex(0, 0))
	t.one = t.insert(complex(1, 0))
	return t
}

func (t *mapTable) key(c complex128) bucketKey {
	return bucketKey{
		re: int64(math.Floor(real(c) / t.tol)),
		im: int64(math.Floor(imag(c) / t.tol)),
	}
}

func (t *mapTable) insert(c complex128) *Value {
	v := &Value{c: c, id: t.nextID}
	t.nextID++
	k := t.key(c)
	t.buckets[k] = append(t.buckets[k], v)
	return v
}

func (t *mapTable) approx(a, b complex128) bool {
	return math.Abs(real(a)-real(b)) <= t.tol && math.Abs(imag(a)-imag(b)) <= t.tol
}

func (t *mapTable) Lookup(c complex128) *Value {
	t.lookups++
	if t.approx(c, 0) {
		t.hits++
		return t.zero
	}
	if t.approx(c, 1) {
		t.hits++
		return t.one
	}
	k := t.key(c)
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			for _, v := range t.buckets[bucketKey{k.re + dr, k.im + di}] {
				if t.approx(v.c, c) {
					t.hits++
					return v
				}
			}
		}
	}
	return t.insert(c)
}

// internTolerances are the tolerances the stream tests draw from: the
// default, a loose one and the coarsest NewTable accepts.
var internTolerances = []float64{DefaultTolerance, 1e-6, 5e-3}

// internStream decodes fuzz bytes into a stream of finite complex values
// aimed at the table's edge cases.  Each op is one selector byte plus up to
// four parameter bytes (missing bytes read as zero):
//
//   - a point on a tol/4 grid around an anchor (0, ±1, 1/√2, …), so
//     neighbouring buckets fill up densely;
//   - a value on or a hair away from a bucket edge (a multiple of tol);
//   - a value a fraction of tol (0.3 to 2) away from an earlier one;
//   - the midpoint of two earlier values — within tolerance of both when
//     they are at most 2·tol apart, which makes scan order decide;
//   - a value within or just outside tolerance of 0 and 1 (the snaps);
//   - the negation or conjugate of an earlier value;
//   - tiny magnitudes (down to 2^-1074) and huge ones (past the int64
//     bucket range).
func internStream(data []byte, tol float64) []complex128 {
	anchors := []complex128{0, 1, -1, 1i, complex(math.Sqrt2/2, 0), complex(0.5, -0.5), complex(-0.25, math.Sqrt2/2)}
	fracs := []float64{0, 0.3, -0.3, 0.5, -0.99, 0.999999, 1, -1, 1.000001, -1.01, 1.5, 2}
	var out []complex128
	prev := func(b byte) complex128 {
		if len(out) == 0 {
			return anchors[int(b)%len(anchors)]
		}
		return out[int(b)%len(out)]
	}
	for len(data) > 0 {
		var p [5]byte
		n := copy(p[:], data)
		data = data[n:]
		sel, b := p[0], p[1:]
		i16 := func(j int) float64 { return float64(int16(binary.LittleEndian.Uint16(b[j:]))) }
		var c complex128
		switch sel % 8 {
		case 0:
			c = anchors[int(sel>>3)%len(anchors)] + complex(i16(0)*tol/4, i16(2)*tol/4)
		case 1:
			edge := func(x byte) float64 { return float64(int8(x)) * tol }
			hair := fracs[int(b[2])%len(fracs)] * tol * 1e-6
			c = anchors[int(sel>>3)%len(anchors)] + complex(edge(b[0])+hair, edge(b[1])-hair)
		case 2:
			c = prev(b[0]) + complex(fracs[int(b[1])%len(fracs)]*tol, fracs[int(b[2])%len(fracs)]*tol)
		case 3:
			c = (prev(b[0]) + prev(b[1])) / 2
		case 4:
			c = complex(float64(sel>>7), 0) + complex(fracs[int(b[0])%len(fracs)]*tol, fracs[int(b[1])%len(fracs)]*tol)
		case 5:
			if c = -prev(b[0]); b[1]&1 == 1 {
				c = complex(-real(c), imag(c))
			}
		case 6:
			c = complex(math.Ldexp(float64(int8(b[0])), -int(b[1])*4), math.Ldexp(float64(int8(b[2])), -int(b[3])*4))
		case 7:
			c = complex(math.Ldexp(float64(int8(b[0])), int(b[1]%96)), math.Ldexp(float64(int8(b[2])), int(b[3]%96)))
		}
		out = append(out, c)
	}
	return out
}

// checkInternMatches interns one stream into a fresh Table and a fresh
// mapTable and requires the same value, by ID, for every element.
func checkInternMatches(t *testing.T, tol float64, stream []complex128) {
	t.Helper()
	got, want := NewTable(tol), newMapTable(tol)
	for i, c := range stream {
		g, w := got.Lookup(c), want.Lookup(c)
		if g.ID() != w.ID() || g.Complex() != w.Complex() {
			t.Fatalf("tol %g, element %d (%v): table returned #%d %v, reference #%d %v",
				tol, i, c, g.ID(), g.Complex(), w.ID(), w.Complex())
		}
	}
	if got.Size() != int(want.nextID) {
		t.Fatalf("tol %g: table holds %d values, reference %d", tol, got.Size(), want.nextID)
	}
	if l, h := got.Stats(); l != want.lookups || h != want.hits {
		t.Fatalf("tol %g: stats %d/%d, reference %d/%d", tol, l, h, want.lookups, want.hits)
	}
}

// FuzzInternMatchesReference feeds the open-addressing Table and the
// map-backed reference one value stream and requires identical returned
// IDs: same scan order over the 3×3 bucket neighbourhood, same per-bucket
// insertion order, across table growth.
func FuzzInternMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 1, 3, 0, 0, 0, 2, 0, 1, 2, 3, 3, 0, 1})
	for seed := int64(1); seed <= 6; seed++ {
		// Short seeds keep the fuzzer's minimization of new inputs fast;
		// the long streams live in TestInternMatchesReferenceGrowth.
		data := make([]byte, 60*5)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(uint8(seed), data)
	}
	f.Fuzz(func(t *testing.T, tolSel uint8, data []byte) {
		tol := internTolerances[int(tolSel)%len(internTolerances)]
		checkInternMatches(t, tol, internStream(data, tol))
	})
}

// TestInternMatchesReferenceGrowth pins a stream long enough to double the
// table several times, for every tolerance.
func TestInternMatchesReferenceGrowth(t *testing.T) {
	data := make([]byte, 20000*5)
	rand.New(rand.NewSource(42)).Read(data)
	for _, tol := range internTolerances {
		checkInternMatches(t, tol, internStream(data, tol))
	}
}
