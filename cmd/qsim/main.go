// Command qsim simulates a quantum circuit on a computational basis state
// using the decision-diagram simulator, printing the resulting state (and
// optionally measurement samples) — the engine the paper's flow uses for its
// random-stimuli runs.
//
// Usage:
//
//	qsim [flags] <circuit>
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"qcec/internal/circuitfile"
	"qcec/internal/sim"
)

func main() {
	var (
		input = flag.Uint64("input", 0, "computational basis state to simulate")
		shots = flag.Int("shots", 0, "measurement samples to draw (0 = print amplitudes instead)")
		seed  = flag.Int64("seed", 0, "sampling seed")
		limit = flag.Int("limit", 16, "maximum amplitudes to print")
		stats = flag.Bool("stats", false, "print DD statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qsim [flags] <circuit>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	c, err := circuitfile.Load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsim:", err)
		os.Exit(2)
	}
	if c.N < 64 && *input >= uint64(1)<<uint(c.N) {
		fmt.Fprintf(os.Stderr, "qsim: input %d out of range for %d qubits\n", *input, c.N)
		os.Exit(2)
	}
	s := sim.New(c.N)
	st := s.Run(c, *input)
	fmt.Printf("circuit: %s — %d qubits, %d gates, depth %d\n", c.Name, c.N, c.NumGates(), c.Depth())
	if *shots > 0 {
		rng := rand.New(rand.NewSource(*seed))
		counts := make(map[uint64]int)
		for i := 0; i < *shots; i++ {
			counts[s.P.Sample(st, rng)]++
		}
		type kv struct {
			k uint64
			v int
		}
		var sorted []kv
		for k, v := range counts {
			sorted = append(sorted, kv{k, v})
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].v > sorted[j].v })
		for _, e := range sorted {
			fmt.Printf("|%0*b>: %d\n", c.N, e.k, e.v)
		}
	} else {
		fmt.Printf("state: %s\n", s.P.FormatState(st, *limit))
	}
	if *stats {
		fmt.Printf("state DD nodes: %d, package nodes: %d, GC runs: %d\n",
			s.P.VSize(st), s.P.NodeCount(), s.P.GCRuns())
	}
}
