// Package qcec reproduces "The Power of Simulation for Equivalence Checking
// in Quantum Computing" (Burgholzer & Wille, DAC 2020) as a pure-Go library.
//
// The repository implements, from scratch and with no dependencies beyond the
// standard library:
//
//   - a QMDD decision-diagram package for quantum states and unitaries
//     (internal/cn, internal/dd),
//   - a quantum-circuit intermediate representation with OpenQASM 2.0 and
//     RevLib .real I/O (internal/circuit, internal/qasm, internal/revlib),
//   - a DD-based simulator and a dense reference simulator
//     (internal/sim, internal/dense),
//   - complete DD-based equivalence checking with naive, proportional and
//     lookahead gate-alternation strategies (internal/ec),
//   - the paper's proposed simulation-first equivalence checking flow, and
//     a race of every checker below as its alternative mode (internal/core),
//   - the compilation substrates that produce the "alternative realizations"
//     the paper checks: gate decomposition, SWAP-inserting mapping, circuit
//     optimization and reversible-logic synthesis (internal/decompose,
//     internal/mapping, internal/opt, internal/synth),
//   - two further checker families, run only as provers of core's race:
//     gate-level miter rewriting (internal/ecrw, ref [16]) and ZX-calculus
//     rewriting (internal/zx),
//   - the paper's benchmark families and error-injection model
//     (internal/bench, internal/errinject), and
//   - the experiment harness that regenerates Table Ia/Ib, the Sec. IV-A
//     theory experiment and the extension studies, among them the census
//     of every race prover (internal/harness, cmd/qectab, bench_test.go,
//     shape_test.go).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package qcec
