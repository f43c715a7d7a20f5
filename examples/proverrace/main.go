// Proverrace: race equivalence-checking methods of the repository on the
// same circuit pair — core.Check with Options.Provers, which runs them on
// the concurrent portfolio engine (internal/portfolio).  The decision
// diagrams the paper's Sec. III-A surveys ([18]-[22]), ZX-calculus
// rewriting and the stabilizer tableau race the proposed simulation-first
// prefilter, all at once, with the losers cancelled as soon as one prover
// delivers a definitive verdict.
package main

import (
	"fmt"
	"time"

	"qcec/internal/bench"
	"qcec/internal/core"
	"qcec/internal/decompose"
	"qcec/internal/errinject"
)

func printRace(rep core.Report) {
	if rep.Err != nil {
		panic(rep.Err)
	}
	fmt.Printf("verdict: %s", rep.Verdict)
	if rep.DecidedBy != "" {
		fmt.Printf(" — won by %s in %.4fs", rep.DecidedBy, rep.TotalTime.Seconds())
	}
	fmt.Println()
	if rep.Counterexample != nil {
		fmt.Printf("counterexample: input |%b>\n", rep.Counterexample.Input)
	}
	fmt.Printf("  %-6s %-30s %-12s %10s  %s\n", "prover", "verdict", "stopped", "time", "detail")
	for _, r := range rep.Provers {
		fmt.Printf("  %-6s %-30s %-12s %9.4fs  %s\n",
			r.Name, r.Verdict, r.Stop, r.Runtime.Seconds(), r.Detail)
	}
	fmt.Println()
}

func main() {
	// The pair: a hidden-weighted-bit netlist and its CX-level compilation.
	g, err := bench.HWB(5)
	if err != nil {
		panic(err)
	}
	gp := decompose.Circuit(g, decompose.LevelCX)
	fmt.Printf("pair: %s (|G| = %d MCT gates) vs compiled (|G'| = %d CX-level gates)\n\n",
		g.Name, g.NumGates(), gp.NumGates())

	opts := core.Options{
		// stab is included even though the pair is not Clifford: its
		// "error" row ("non-Clifford gate set") demonstrates how
		// inapplicable provers bow out of the race.
		Provers:         []string{"sim", "dd", "alt", "zx", "stab"},
		Seed:            1,
		UpToGlobalPhase: true, // the CX-level decomposition introduces a phase
		ECTimeout:       30 * time.Second,
	}

	fmt.Println("equivalent pair — only complete provers can win:")
	printRace(core.Check(g, gp, opts))

	// The same race on a buggy compilation: the simulation prefilter finds a
	// counterexample almost immediately and the complete provers are
	// cancelled mid-flight instead of running to their 30 s timeouts.
	buggy, inj, err := errinject.InjectAny(gp, 7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("with an injected error (%s):\n", inj)
	printRace(core.Check(g, buggy, opts))
}
