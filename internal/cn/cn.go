// Package cn provides an interning table for complex numbers with
// tolerance-based lookup.
//
// Decision-diagram packages for quantum computing (QMDDs) require edge
// weights to be canonical: two weights that are numerically "the same" (up to
// a small tolerance that absorbs floating-point round-off) must be
// represented by the same object, so that node hashing and structural
// equality reduce to pointer comparison.  This package is the Go counterpart
// of the "complex table" used by the JKU/MQT DD packages.
//
// Concurrency: a Table is NOT safe for concurrent use, and interned Values
// from different Tables must never be mixed (pointer identity only holds
// within one table).  Concurrent checkers therefore run one dd.Package —
// and hence one Table — per goroutine; see the internal/dd package docs.
package cn

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Value is an interned complex number.  Values are created exclusively by a
// Table; two Values obtained from the same Table are numerically equal (up to
// the table tolerance) if and only if they are the same pointer.
type Value struct {
	c  complex128
	id uint64
}

// Complex returns the numeric value.
func (v *Value) Complex() complex128 { return v.c }

// Real returns the real part of the value.
func (v *Value) Real() float64 { return real(v.c) }

// Imag returns the imaginary part of the value.
func (v *Value) Imag() float64 { return imag(v.c) }

// ID returns the identifier assigned at interning time.  IDs are dense from
// 0 in interning order, stable for the lifetime of the table, and below
// 2^32 (the bucket slots store them as uint32), so DD compute tables hash
// them and store them as uint32 in place of the pointer (see Table.ByID).
func (v *Value) ID() uint64 { return v.id }

// Abs returns the magnitude |v|.
func (v *Value) Abs() float64 { return cmplx.Abs(v.c) }

// Abs2 returns the squared magnitude |v|^2.
func (v *Value) Abs2() float64 {
	re, im := real(v.c), imag(v.c)
	return re*re + im*im
}

// String formats the value as a complex literal.
func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%g%+gi", real(v.c), imag(v.c))
}

// bucketKey quantizes a value to the tolerance grid: a value within
// tolerance of c lies in c's bucket or one of its eight neighbours.
type bucketKey struct {
	re, im int64
}

// slot is one entry of the bucket table: an interned value's bucket and its
// ID plus one (0 marks an empty slot).
type slot struct {
	key bucketKey
	id1 uint32
}

// Table interns complex numbers.  It is not safe for concurrent use.
//
// The values live in an open-addressing, linear-probing table of slots
// (power-of-two length, at most half full) keyed by bucket.  A value's home
// slot is its bucket row's hash plus its column, so the three buckets of a
// row in Lookup's 3×3 neighbourhood scan share a cache line or two.  Slots
// are never removed, so the values of one bucket sit along its probe
// sequence in insertion order, and growth re-inserts in ID (= insertion)
// order to keep it that way: Lookup returns exactly the value a scan of
// per-bucket insertion-ordered lists would.  The slots hold no pointers;
// vals maps IDs to the values, which are carved out of shared chunks.
type Table struct {
	tol    float64
	slots  []slot
	vals   []*Value // by ID
	chunk  []Value  // backing store for the next values; never reallocated
	nextID uint64

	// Zero and One are the canonical entries for the exact values 0 and 1.
	// They are pre-interned so that hot-path comparisons against them are
	// single pointer comparisons.
	Zero *Value
	One  *Value

	lookups int64
	hits    int64
}

// DefaultTolerance is the tolerance used by NewDefault.  It matches the order
// of magnitude used by the JKU DD package and comfortably absorbs the
// round-off accumulated by circuits with hundreds of thousands of gates.
const DefaultTolerance = 1e-10

// AgreementTolerance derives every verdict-level bound from a weight
// tolerance (0 = DefaultTolerance): the simulation stage's state agreement,
// the complete check's phase band and counterexample threshold, the
// stabilizer's phase anchor and its Clifford angle snap.  Round-off
// compounds over the gate sequence, so the bound sits four orders of
// magnitude above the interning tolerance — 1e-6 at the default — and is
// capped at 1e-3 so a coarse tolerance can never accept genuinely
// different states.
func AgreementTolerance(weightTol float64) float64 {
	if weightTol == 0 {
		weightTol = DefaultTolerance
	}
	return min(weightTol*1e4, 1e-3)
}

// NewTable creates a table with the given tolerance.  The tolerance must be
// positive and smaller than 1e-2 (larger values would merge numerically
// distinct amplitudes of real circuits).
func NewTable(tol float64) *Table {
	if tol <= 0 || tol >= 1e-2 {
		panic(fmt.Sprintf("cn: invalid tolerance %g", tol))
	}
	t := &Table{tol: tol, slots: make([]slot, tableInitCap)}
	t.Zero = t.insert(complex(0, 0))
	t.One = t.insert(complex(1, 0))
	return t
}

// NewDefault creates a table with DefaultTolerance.
func NewDefault() *Table { return NewTable(DefaultTolerance) }

// ByID returns the value with the given ID (see Value.ID): one indexed load,
// which lets pointer-free structures hold a uint32 in place of a *Value.
// The ID must come from a value of this table.
func (t *Table) ByID(id uint32) *Value { return t.vals[id] }

// Tolerance returns the table tolerance.
func (t *Table) Tolerance() float64 { return t.tol }

// Size returns the number of distinct interned values.
func (t *Table) Size() int { return int(t.nextID) }

// Stats returns the number of lookups performed and how many of them hit an
// existing entry.
func (t *Table) Stats() (lookups, hits int64) { return t.lookups, t.hits }

// ResetStats zeroes the lookup counters without touching the interned
// values; a pooled DD package calls it between jobs so each job's snapshot
// reports only its own interning activity.
func (t *Table) ResetStats() { t.lookups, t.hits = 0, 0 }

// tableInitCap is a fresh table's slot count; valueChunk is how many values
// one backing chunk holds.
const (
	tableInitCap = 1 << 9
	valueChunk   = 256
)

func (t *Table) key(c complex128) bucketKey {
	return bucketKey{
		re: int64(math.Floor(real(c) / t.tol)),
		im: int64(math.Floor(imag(c) / t.tol)),
	}
}

// rowHash scatters a bucket row over the slot space; the row's buckets then
// occupy consecutive home slots (see home).
func rowHash(re int64) uint64 {
	h := uint64(re) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// home returns the first slot of bucket (re, im)'s probe sequence.
func (t *Table) home(row uint64, im int64) uint64 {
	return (row + uint64(im)) & uint64(len(t.slots)-1)
}

// place stores the value with ID id at the first empty slot of k's probe
// sequence.
func (t *Table) place(k bucketKey, id uint64) {
	m := uint64(len(t.slots) - 1)
	i := t.home(rowHash(k.re), k.im)
	for t.slots[i].id1 != 0 {
		i = (i + 1) & m
	}
	t.slots[i] = slot{key: k, id1: uint32(id + 1)}
}

func (t *Table) insert(c complex128) *Value {
	if 2*(len(t.vals)+1) > len(t.slots) {
		t.slots = make([]slot, 2*len(t.slots))
		for _, v := range t.vals {
			t.place(t.key(v.c), v.id)
		}
	}
	if len(t.chunk) == cap(t.chunk) {
		t.chunk = make([]Value, 0, valueChunk)
	}
	t.chunk = append(t.chunk, Value{c: c, id: t.nextID})
	v := &t.chunk[len(t.chunk)-1]
	t.nextID++
	t.vals = append(t.vals, v)
	t.place(t.key(c), v.id)
	return v
}

// find returns the first value of bucket k, in insertion order, within
// tolerance of c, or nil.  row is rowHash(k.re).
func (t *Table) find(k bucketKey, row uint64, c complex128) *Value {
	m := uint64(len(t.slots) - 1)
	for i := t.home(row, k.im); ; i = (i + 1) & m {
		s := &t.slots[i]
		if s.id1 == 0 {
			return nil
		}
		if s.key == k {
			if v := t.vals[s.id1-1]; t.approx(v.c, c) {
				return v
			}
		}
	}
}

func (t *Table) approx(a, b complex128) bool {
	return math.Abs(real(a)-real(b)) <= t.tol && math.Abs(imag(a)-imag(b)) <= t.tol
}

// NonFiniteError is the panic value raised by Lookup on a NaN or infinite
// input.  Non-finite values would corrupt the bucket quantization, so they
// cannot be interned; they are reachable from user input (e.g. a rotation
// gate with a non-finite angle), so the flow layers (internal/core,
// internal/ec, internal/portfolio) recover this panic at their isolation
// boundaries and surface it as a typed report error instead of crashing.
type NonFiniteError struct {
	// Value is the offending complex number.
	Value complex128
}

// Error formats the offending value.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("cn: non-finite value %v", e.Value)
}

// Lookup returns the canonical Value for c, interning it if no value within
// the tolerance exists yet.  Values within tolerance of 0 or 1 snap exactly
// to the canonical Zero / One entries.  Non-finite values panic with a
// *NonFiniteError: they arise from non-finite user input (gate parameters)
// or an upstream numeric bug, and would corrupt the bucket quantization.
func (t *Table) Lookup(c complex128) *Value {
	if math.IsNaN(real(c)) || math.IsNaN(imag(c)) ||
		math.IsInf(real(c), 0) || math.IsInf(imag(c), 0) {
		panic(&NonFiniteError{Value: c})
	}
	t.lookups++
	// Fast paths for the two values that dominate DD construction.
	if t.approx(c, 0) {
		t.hits++
		return t.Zero
	}
	if t.approx(c, 1) {
		t.hits++
		return t.One
	}
	k := t.key(c)
	// A value within tolerance may have been quantized into a neighboring
	// bucket; scan the 3x3 neighborhood, row by row.
	// (The offsets wrap like the keys themselves do at the int64 range.)
	for dr := int64(-1); dr <= 1; dr++ {
		row := rowHash(k.re + dr)
		for di := int64(-1); di <= 1; di++ {
			if v := t.find(bucketKey{k.re + dr, k.im + di}, row, c); v != nil {
				t.hits++
				return v
			}
		}
	}
	return t.insert(c)
}

// LookupReal is shorthand for Lookup(complex(r, 0)).
func (t *Table) LookupReal(r float64) *Value { return t.Lookup(complex(r, 0)) }

// Mul returns the interned product of two values.
func (t *Table) Mul(a, b *Value) *Value {
	if a == t.Zero || b == t.Zero {
		return t.Zero
	}
	if a == t.One {
		return b
	}
	if b == t.One {
		return a
	}
	return t.Lookup(a.c * b.c)
}

// Div returns the interned quotient a/b.  b must be non-zero.
func (t *Table) Div(a, b *Value) *Value {
	if b == t.Zero {
		panic("cn: division by interned zero")
	}
	if a == t.Zero {
		return t.Zero
	}
	if b == t.One {
		return a
	}
	return t.Lookup(a.c / b.c)
}

// Add returns the interned sum of two values.
func (t *Table) Add(a, b *Value) *Value {
	if a == t.Zero {
		return b
	}
	if b == t.Zero {
		return a
	}
	return t.Lookup(a.c + b.c)
}

// Neg returns the interned negation of a value.
func (t *Table) Neg(a *Value) *Value {
	if a == t.Zero {
		return t.Zero
	}
	return t.Lookup(-a.c)
}

// Conj returns the interned complex conjugate of a value.
func (t *Table) Conj(a *Value) *Value {
	if imag(a.c) == 0 {
		return a
	}
	return t.Lookup(cmplx.Conj(a.c))
}
