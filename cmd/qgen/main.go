// Command qgen generates benchmark circuits from the reproduction's
// built-in families and writes them to OpenQASM 2.0 or RevLib .real files —
// the tool that populates circuits/ with inputs for qcec/qsim/qconv.
//
// Usage:
//
//	qgen -family qft -n 8 -o circuits/qft8.qasm
//	qgen -family hwb -n 5 -o circuits/hwb5.real
//	qgen -family grover -n 4 -o circuits/grover4.qasm -decompose cx
//	qgen -family supremacy -rows 3 -cols 3 -depth 8 -seed 7 -o sup.qasm
//	qgen -family clifford -n 8 -gates 80 -seed 3 -o circuits/clifford8.qasm
//	qgen -family clifford -n 8 -gates 80 -seed 3 -errinject flipped-cnot -o buggy.qasm
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/circuitfile"
	"qcec/internal/decompose"
	"qcec/internal/errinject"
)

// parseErrKind maps a flag value onto an error-injection class by its
// String() name (case-insensitive, spaces or dashes), so the flag vocabulary
// tracks AllKinds automatically.
func parseErrKind(name string) (errinject.Kind, error) {
	canon := func(s string) string {
		return strings.ReplaceAll(strings.ToLower(s), " ", "-")
	}
	var names []string
	for _, k := range errinject.AllKinds() {
		if canon(k.String()) == canon(name) {
			return k, nil
		}
		names = append(names, canon(k.String()))
	}
	return 0, fmt.Errorf("unknown error kind %q (want %s)", name, strings.Join(names, "|"))
}

func main() {
	var (
		family  = flag.String("family", "", "circuit family: qft|grover|ghz|bv|dj|supremacy|chemistry|hwb|urf|inc|rd|clifford")
		n       = flag.Int("n", 4, "size parameter (qubits / search bits / input bits)")
		rows    = flag.Int("rows", 2, "grid rows (supremacy, chemistry)")
		cols    = flag.Int("cols", 2, "grid cols (supremacy, chemistry)")
		depth   = flag.Int("depth", 8, "cycles (supremacy) / Trotter steps (chemistry)")
		gates   = flag.Int("gates", 0, "gate count (clifford; 0 = 10n)")
		seed    = flag.Int64("seed", 1, "generator seed where applicable")
		errKind = flag.String("errinject", "", "inject one error before writing (see internal/errinject kinds)")
		level   = flag.String("decompose", "", "lower before writing: toffoli|cx")
		out     = flag.String("o", "", "output file (.qasm or .real)")
	)
	flag.Parse()
	if *family == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: qgen -family <name> [-n N] -o out.{qasm,real}")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var (
		c   *circuit.Circuit
		err error
	)
	switch *family {
	case "qft":
		c = bench.QFT(*n)
	case "grover":
		c = bench.Grover(*n, (uint64(1)<<uint(*n)-1)/3)
	case "ghz":
		c = bench.GHZ(*n)
	case "bv":
		c = bench.BernsteinVazirani(*n, (uint64(1)<<uint(*n)-1)/3)
	case "dj":
		c = bench.DeutschJozsa(*n, false)
	case "supremacy":
		c = bench.Supremacy(*rows, *cols, *depth, *seed)
	case "chemistry":
		c = bench.Chemistry(*rows, *cols, *depth)
	case "hwb":
		c, err = bench.HWB(*n)
	case "urf":
		c, err = bench.RandomReversible(*n, *seed)
	case "inc":
		c = bench.Increment(*n, 1)
	case "rd":
		c, err = bench.RD(*n)
	case "clifford":
		g := *gates
		if g == 0 {
			g = 10 * *n
		}
		c = bench.RandomClifford(*n, g, *seed)
	default:
		fmt.Fprintf(os.Stderr, "qgen: unknown family %q\n", *family)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qgen:", err)
		os.Exit(1)
	}

	if *errKind != "" {
		kind, kerr := parseErrKind(*errKind)
		if kerr != nil {
			fmt.Fprintln(os.Stderr, "qgen:", kerr)
			os.Exit(2)
		}
		var inj errinject.Injection
		c, inj, err = errinject.Inject(c, kind, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "injected: %s\n", inj)
	}

	switch *level {
	case "":
	case "toffoli":
		c = decompose.Circuit(c, decompose.LevelToffoli)
	case "cx":
		c = decompose.Circuit(c, decompose.LevelCX)
	default:
		fmt.Fprintf(os.Stderr, "qgen: unknown decomposition level %q\n", *level)
		os.Exit(2)
	}

	if err := circuitfile.Save(*out, c); err != nil {
		fmt.Fprintln(os.Stderr, "qgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d qubits, %d gates\n", *out, c.N, c.NumGates())
}
