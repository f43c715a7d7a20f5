// Package dense implements a straightforward dense state-vector and unitary
// simulator.
//
// It plays two roles in the reproduction: it is the test oracle every DD
// operation is validated against, and it is the small-scale stand-in for the
// naive "construct the complete functionality" baseline the paper argues
// against (explicit 2^n x 2^n matrices).  It is deliberately simple and
// allocation-heavy; it is only ever used for small registers.
package dense

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Control describes a control qubit; Neg selects the |0> branch.
type Control struct {
	Qubit int
	Neg   bool
}

// State is a dense state vector of 2^n amplitudes, index bit q holding
// qubit q (qubit 0 is the least-significant bit).
type State []complex128

// NewState returns |0...0> on n qubits.
func NewState(n int) State {
	s := make(State, 1<<uint(n))
	s[0] = 1
	return s
}

// BasisState returns |i> on n qubits.
func BasisState(n int, i uint64) State {
	s := make(State, 1<<uint(n))
	s[i] = 1
	return s
}

// Qubits returns the register size of the state.
func (s State) Qubits() int {
	n := 0
	for 1<<uint(n) < len(s) {
		n++
	}
	return n
}

// Clone returns a copy of the state.
func (s State) Clone() State {
	c := make(State, len(s))
	copy(c, s)
	return c
}

func controlsSatisfied(i uint64, controls []Control) bool {
	for _, c := range controls {
		bit := (i >> uint(c.Qubit)) & 1
		if c.Neg {
			if bit != 0 {
				return false
			}
		} else if bit != 1 {
			return false
		}
	}
	return true
}

// ApplyGate applies a (controlled) single-qubit operation in place.
func (s State) ApplyGate(u [2][2]complex128, target int, controls []Control) {
	mask := uint64(1) << uint(target)
	for i := uint64(0); i < uint64(len(s)); i++ {
		if i&mask != 0 || !controlsSatisfied(i, controls) {
			continue
		}
		j := i | mask
		a0, a1 := s[i], s[j]
		s[i] = u[0][0]*a0 + u[0][1]*a1
		s[j] = u[1][0]*a0 + u[1][1]*a1
	}
}

// InnerProduct returns <a|b>.
func InnerProduct(a, b State) complex128 {
	if len(a) != len(b) {
		panic("dense: inner product of mismatched states")
	}
	var sum complex128
	for i := range a {
		sum += cmplx.Conj(a[i]) * b[i]
	}
	return sum
}

// Norm returns the 2-norm of the state.
func (s State) Norm() float64 {
	var sum float64
	for _, c := range s {
		re, im := real(c), imag(c)
		sum += re*re + im*im
	}
	return math.Sqrt(sum)
}

// Fidelity returns |<a|b>|^2.
func Fidelity(a, b State) float64 {
	ip := InnerProduct(a, b)
	re, im := real(ip), imag(ip)
	return re*re + im*im
}

// ApproxEqual reports whether two states agree element-wise within tol.
func ApproxEqual(a, b State, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// EqualUpToGlobalPhase reports whether a = e^{i phi} b within tol.
func EqualUpToGlobalPhase(a, b State, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	// Find the largest-magnitude entry of b to fix the phase.
	best, mag := -1, 0.0
	for i := range b {
		if m := cmplx.Abs(b[i]); m > mag {
			best, mag = i, m
		}
	}
	if best < 0 {
		return a.Norm() <= tol
	}
	if cmplx.Abs(a[best]) < tol && mag > tol {
		return false
	}
	phase := a[best] / b[best]
	scaled := b.Clone()
	for i := range scaled {
		scaled[i] *= phase
	}
	return ApproxEqual(a, scaled, tol)
}

// Matrix is a dense square matrix.
type Matrix [][]complex128

// NewMatrix returns a zero dim x dim matrix.
func NewMatrix(dim int) Matrix {
	m := make(Matrix, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
	}
	return m
}

// IdentityMatrix returns the 2^n x 2^n identity.
func IdentityMatrix(n int) Matrix {
	m := NewMatrix(1 << uint(n))
	for i := range m {
		m[i][i] = 1
	}
	return m
}

// GateMatrix builds the full 2^n x 2^n matrix of a controlled single-qubit
// operation by applying it to every basis state.
func GateMatrix(n int, u [2][2]complex128, target int, controls []Control) Matrix {
	dim := 1 << uint(n)
	m := NewMatrix(dim)
	for c := 0; c < dim; c++ {
		col := BasisState(n, uint64(c))
		col.ApplyGate(u, target, controls)
		for r := 0; r < dim; r++ {
			m[r][c] = col[r]
		}
	}
	return m
}

// Mul returns the matrix product a·b.
func Mul(a, b Matrix) Matrix {
	dim := len(a)
	if len(b) != dim {
		panic("dense: matrix size mismatch")
	}
	out := NewMatrix(dim)
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			row := b[k]
			for j := 0; j < dim; j++ {
				out[i][j] += aik * row[j]
			}
		}
	}
	return out
}

// MulVec returns m·v.
func MulVec(m Matrix, v State) State {
	dim := len(m)
	if len(v) != dim {
		panic("dense: matrix/vector size mismatch")
	}
	out := make(State, dim)
	for i := 0; i < dim; i++ {
		var sum complex128
		for j := 0; j < dim; j++ {
			sum += m[i][j] * v[j]
		}
		out[i] = sum
	}
	return out
}

// Dagger returns the conjugate transpose.
func Dagger(m Matrix) Matrix {
	dim := len(m)
	out := NewMatrix(dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			out[j][i] = cmplx.Conj(m[i][j])
		}
	}
	return out
}

// MatApproxEqual reports whether two matrices agree entry-wise within tol.
func MatApproxEqual(a, b Matrix, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if cmplx.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// MatEqualUpToGlobalPhase reports whether a = e^{i phi} b within tol.
func MatEqualUpToGlobalPhase(a, b Matrix, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	var phase complex128
	found := false
	for i := range b {
		for j := range b[i] {
			if cmplx.Abs(b[i][j]) > 0.1 {
				if cmplx.Abs(a[i][j]) <= tol {
					return false
				}
				phase = a[i][j] / b[i][j]
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		return MatApproxEqual(a, b, tol)
	}
	for i := range a {
		for j := range a[i] {
			if cmplx.Abs(a[i][j]-phase*b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// IsUnitary reports whether m·m† = I within tol.
func IsUnitary(m Matrix, tol float64) bool {
	prod := Mul(m, Dagger(m))
	dim := len(m)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(prod[i][j]-want) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix with aligned entries (used by the Fig. 1
// reproduction example).
func (m Matrix) String() string {
	out := ""
	for _, row := range m {
		for j, c := range row {
			if j > 0 {
				out += " "
			}
			out += formatEntry(c)
		}
		out += "\n"
	}
	return out
}

func formatEntry(c complex128) string {
	re, im := real(c), imag(c)
	switch {
	case math.Abs(im) < 1e-9 && math.Abs(re) < 1e-9:
		return "    0    "
	case math.Abs(im) < 1e-9:
		return fmt.Sprintf("%8.4f ", re)
	case math.Abs(re) < 1e-9:
		return fmt.Sprintf("%7.4fi ", im)
	default:
		return fmt.Sprintf("%.3f%+.3fi", re, im)
	}
}
