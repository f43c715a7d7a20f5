// Package bench generates the benchmark circuit families of the paper's
// evaluation (Sec. V): Grover's algorithm, the Quantum Fourier Transform,
// quantum-supremacy-style random grid circuits, Trotterized
// quantum-chemistry lattice models, and the RevLib reversible-function class
// (hidden-weighted-bit, random reversible functions, counting/arithmetic
// functions), all regenerated from first principles.
//
// Every generator is deterministic (seeded where randomized), so the
// experiment harness produces reproducible tables.
package bench

import (
	"fmt"
	"math"
	"math/rand"

	"qcec/internal/circuit"
	"qcec/internal/synth"
)

// Grover returns Grover's search for a marked element on k search qubits
// (plus one idle workspace line that decomposition may borrow, mirroring the
// padded registers of the paper's Grover instances).  The number of
// iterations is the optimal floor(pi/4 * sqrt(2^k)).
func Grover(k int, marked uint64) *circuit.Circuit {
	if k < 2 || k > 62 {
		panic(fmt.Sprintf("bench: unsupported Grover size %d", k))
	}
	if marked >= uint64(1)<<uint(k) {
		panic(fmt.Sprintf("bench: marked element %d out of range", marked))
	}
	n := k + 1
	c := circuit.New(n, fmt.Sprintf("grover-%d", k))
	iters := int(math.Floor(math.Pi / 4 * math.Sqrt(math.Exp2(float64(k)))))
	if iters < 1 {
		iters = 1
	}
	for q := 0; q < k; q++ {
		c.H(q)
	}
	controls := make([]int, k-1)
	for i := range controls {
		controls[i] = i
	}
	mcz := func() {
		c.MCZ(controls, k-1)
	}
	for it := 0; it < iters; it++ {
		// Oracle: phase-flip the marked element.
		for q := 0; q < k; q++ {
			if marked&(1<<uint(q)) == 0 {
				c.X(q)
			}
		}
		mcz()
		for q := 0; q < k; q++ {
			if marked&(1<<uint(q)) == 0 {
				c.X(q)
			}
		}
		// Diffusion: reflect about the uniform superposition.
		for q := 0; q < k; q++ {
			c.H(q)
		}
		for q := 0; q < k; q++ {
			c.X(q)
		}
		mcz()
		for q := 0; q < k; q++ {
			c.X(q)
		}
		for q := 0; q < k; q++ {
			c.H(q)
		}
	}
	return c
}

// QFT returns the n-qubit Quantum Fourier Transform without the final
// bit-reversal swaps, matching the paper's gate counts
// (|QFT 64| = 64*65/2 = 2080).
func QFT(n int) *circuit.Circuit {
	c := circuit.New(n, fmt.Sprintf("qft-%d", n))
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			c.CPhase(math.Pi/math.Exp2(float64(i-j)), j, i)
		}
	}
	return c
}

// Supremacy returns a quantum-supremacy-style random circuit on a
// rows x cols grid: cycles alternate a layer of random single-qubit gates
// (sqrt(X), sqrt(Y) or T) with a layer of CZ gates along one of four
// cyclically chosen grid directions.
func Supremacy(rows, cols, cycles int, seed int64) *circuit.Circuit {
	n := rows * cols
	if n < 2 {
		panic("bench: supremacy grid too small")
	}
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n, fmt.Sprintf("supremacy-%dx%d-%d", rows, cols, cycles))
	id := func(r, cc int) int { return r*cols + cc }
	sqrtY := &circuit.Unitary{Label: "sy", Mat: [2][2]complex128{
		{complex(0.5, 0.5), complex(-0.5, -0.5)},
		{complex(0.5, 0.5), complex(0.5, 0.5)},
	}}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for q := 0; q < n; q++ {
			switch rng.Intn(3) {
			case 0:
				c.SX(q)
			case 1:
				c.Add(circuit.Gate{Kind: circuit.Custom, Target: q, Target2: -1, Custom: sqrtY})
			case 2:
				c.T(q)
			}
		}
		// CZ layer: direction cycles through E/W column pairs and N/S row
		// pairs with alternating offsets.
		switch cyc % 4 {
		case 0:
			for r := 0; r < rows; r++ {
				for cc := 0; cc+1 < cols; cc += 2 {
					c.CZ(id(r, cc), id(r, cc+1))
				}
			}
		case 1:
			for r := 0; r+1 < rows; r += 2 {
				for cc := 0; cc < cols; cc++ {
					c.CZ(id(r, cc), id(r+1, cc))
				}
			}
		case 2:
			for r := 0; r < rows; r++ {
				for cc := 1; cc+1 < cols; cc += 2 {
					c.CZ(id(r, cc), id(r, cc+1))
				}
			}
		case 3:
			for r := 1; r+1 < rows; r += 2 {
				for cc := 0; cc < cols; cc++ {
					c.CZ(id(r, cc), id(r+1, cc))
				}
			}
		}
	}
	return c
}

// Chemistry returns a Trotterized 2-D lattice-model circuit in the style of
// the paper's "Quantum Chemistry m x n" benchmarks: rows x cols sites with
// two spin orbitals each (n = 2*rows*cols qubits), evolving hopping
// (XX+YY) terms along lattice edges, on-site (ZZ) interaction between the
// two spins of each site, and a chemical-potential RZ per orbital, repeated
// for the given number of Trotter steps.
func Chemistry(rows, cols, steps int) *circuit.Circuit {
	n := 2 * rows * cols
	if n < 2 {
		panic("bench: chemistry lattice too small")
	}
	c := circuit.New(n, fmt.Sprintf("chemistry-%dx%d", rows, cols))
	orbital := func(r, cc, spin int) int { return 2*(r*cols+cc) + spin }
	rzz := func(a, b int, theta float64) {
		c.CX(a, b)
		c.RZ(theta, b)
		c.CX(a, b)
	}
	xxPlusYY := func(a, b int, theta float64) {
		// exp(-i theta (XX+YY)/2), decomposed per Pauli basis change.
		c.H(a)
		c.H(b)
		rzz(a, b, theta)
		c.H(a)
		c.H(b)
		c.RX(math.Pi/2, a)
		c.RX(math.Pi/2, b)
		rzz(a, b, theta)
		c.RX(-math.Pi/2, a)
		c.RX(-math.Pi/2, b)
	}
	const (
		tHop = 0.2  // hopping amplitude
		uInt = 0.5  // on-site interaction
		mu   = 0.13 // chemical potential
	)
	for s := 0; s < steps; s++ {
		for spin := 0; spin < 2; spin++ {
			for r := 0; r < rows; r++ {
				for cc := 0; cc < cols; cc++ {
					if cc+1 < cols {
						xxPlusYY(orbital(r, cc, spin), orbital(r, cc+1, spin), tHop)
					}
					if r+1 < rows {
						xxPlusYY(orbital(r, cc, spin), orbital(r+1, cc, spin), tHop)
					}
				}
			}
		}
		for r := 0; r < rows; r++ {
			for cc := 0; cc < cols; cc++ {
				rzz(orbital(r, cc, 0), orbital(r, cc, 1), uInt)
			}
		}
		for q := 0; q < n; q++ {
			c.RZ(mu, q)
		}
	}
	return c
}

// HWB returns the hidden-weighted-bit benchmark on n bits: the permutation
// rotating x left by popcount(x) — the function class of the paper's
// hwb9_119 instance.
func HWB(n int) (*circuit.Circuit, error) {
	size := uint64(1) << uint(n)
	perm := make([]uint64, size)
	mask := size - 1
	for x := uint64(0); x < size; x++ {
		w := popcount(x) % uint64(n)
		perm[x] = ((x << w) | (x >> (uint64(n) - w))) & mask
	}
	// The weight-0 case rotates by 0; the formula above would shift by n,
	// which Go handles as defined behaviour on uint64 but make it explicit:
	perm[0] = 0
	c, err := synth.Permutation(perm, n, fmt.Sprintf("hwb%d", n))
	if err != nil {
		return nil, err
	}
	return c, nil
}

func popcount(x uint64) uint64 {
	var c uint64
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// RandomReversible returns a transformation-based synthesis of a uniformly
// random n-bit permutation — the function class of the paper's urf ("unique
// reversible function") instances, whose synthesized netlists are the
// largest |G| entries of Table I.
func RandomReversible(n int, seed int64) (*circuit.Circuit, error) {
	rng := rand.New(rand.NewSource(seed))
	size := 1 << uint(n)
	perm := make([]uint64, size)
	for i := range perm {
		perm[i] = uint64(i)
	}
	rng.Shuffle(size, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return synth.Permutation(perm, n, fmt.Sprintf("urf%d-like", n))
}

// Increment returns reps repetitions of the n-bit increment (x -> x+1) as
// the classic MCT ripple chain — the function class of inc_237.
func Increment(n, reps int) *circuit.Circuit {
	c := circuit.New(n, fmt.Sprintf("inc%d", n))
	for r := 0; r < reps; r++ {
		for t := n - 1; t >= 0; t-- {
			controls := make([]int, t)
			for i := range controls {
				controls[i] = i
			}
			if t == 0 {
				c.X(0)
			} else {
				c.MCX(controls, t)
			}
		}
	}
	return c
}
