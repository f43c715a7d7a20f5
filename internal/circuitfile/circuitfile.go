// Package circuitfile reads and writes circuit files for the command-line
// tools, choosing the format by file suffix: OpenQASM 2.0 (.qasm) or
// RevLib (.real).
package circuitfile

import (
	"fmt"
	"os"
	"strings"

	"qcec/internal/circuit"
	"qcec/internal/qasm"
	"qcec/internal/revlib"
)

// Supported reports whether path has a suffix Load and Save understand.
func Supported(path string) bool {
	return strings.HasSuffix(path, ".qasm") || strings.HasSuffix(path, ".real")
}

func unsupported(path string) error {
	return fmt.Errorf("unsupported circuit format %q (want .qasm or .real)", path)
}

// Load parses the circuit in the file at path.
func Load(path string) (*circuit.Circuit, error) {
	switch {
	case strings.HasSuffix(path, ".real"):
		f, err := revlib.ParseFile(path)
		if err != nil {
			return nil, err
		}
		return f.Circuit, nil
	case strings.HasSuffix(path, ".qasm"):
		prog, err := qasm.ParseFile(path)
		if err != nil {
			return nil, err
		}
		return prog.Circuit, nil
	}
	return nil, unsupported(path)
}

// Save writes c to the file at path.  The circuit is rendered before the
// file is created, so an unknown suffix or a circuit the format cannot
// express leaves no file behind, and a failed write or close is reported.
func Save(path string, c *circuit.Circuit) error {
	var text string
	var err error
	switch {
	case strings.HasSuffix(path, ".real"):
		text, err = revlib.WriteString(c)
	case strings.HasSuffix(path, ".qasm"):
		text, err = qasm.WriteString(c)
	default:
		return unsupported(path)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(text), 0o666)
}
