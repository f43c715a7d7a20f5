// Command qconv converts circuits between the supported formats and
// optionally lowers them through the decomposition pipeline on the way:
//
//	qconv [-decompose toffoli|cx] [-optimize] -o out.{qasm,real} in.{qasm,real}
//
// Converting a RevLib MCT netlist to OpenQASM requires -decompose cx (plain
// qelib1 has no gates with three or more controls); converting OpenQASM to
// RevLib requires a purely classical circuit.
package main

import (
	"flag"
	"fmt"
	"os"

	"qcec/internal/circuitfile"
	"qcec/internal/decompose"
	"qcec/internal/opt"
)

func main() {
	var (
		out      = flag.String("o", "", "output file (.qasm or .real)")
		level    = flag.String("decompose", "", "lower gates first: toffoli|cx")
		optimize = flag.Bool("optimize", false, "run the peephole optimizer")
		quiet    = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()
	if flag.NArg() != 1 || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: qconv [flags] -o out.{qasm,real} in.{qasm,real}")
		flag.PrintDefaults()
		os.Exit(2)
	}
	c, err := circuitfile.Load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qconv:", err)
		os.Exit(1)
	}
	before := c.NumGates()
	switch *level {
	case "":
	case "toffoli":
		c = decompose.Circuit(c, decompose.LevelToffoli)
	case "cx":
		c = decompose.Circuit(c, decompose.LevelCX)
	default:
		fmt.Fprintf(os.Stderr, "qconv: unknown decomposition level %q\n", *level)
		os.Exit(2)
	}
	if *optimize {
		c, _ = opt.Optimize(c, opt.Options{})
	}
	if err := circuitfile.Save(*out, c); err != nil {
		fmt.Fprintln(os.Stderr, "qconv:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("%s (%d gates) -> %s (%d gates, %d qubits)\n",
			flag.Arg(0), before, *out, c.NumGates(), c.N)
	}
}
