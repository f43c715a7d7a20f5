package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// broadcastBomb asks for two million wires and one gate per wire in 57
// bytes.
const broadcastBomb = `OPENQASM 2.0; include "qelib1.inc"; qreg q[2000000]; h q;`

// macroBomb nests levels gate macros, each calling the one below four
// times, so a single call emits 4^levels gates.
func macroBomb(levels int) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[1];\ngate m0 a { x a; x a; x a; x a; }\n")
	for k := 1; k < levels; k++ {
		fmt.Fprintf(&b, "gate m%d a { m%[2]d a; m%[2]d a; m%[2]d a; m%[2]d a; }\n", k, k-1)
	}
	fmt.Fprintf(&b, "m%d q[0];\n", levels-1)
	return b.String()
}

// TestExpansionBoundedByLimits: a short body whose expansion passes the
// size envelope is rejected with 413 while the parser expands it, having
// allocated a small fraction of what the full expansion takes (checked
// only after parsing, the 8-level macro bomb allocated about 46 MiB and
// the 100,000-wire broadcast about 81 MiB).
func TestExpansionBoundedByLimits(t *testing.T) {
	const allocBound = 1 << 20
	cases := []struct {
		name string
		cfg  Config
		body string
	}{
		{"broadcast past qubit limit", Config{MaxQubits: 16, MaxGates: 1000}, broadcastBomb},
		{"macros past gate limit", Config{MaxQubits: 16, MaxGates: 1000}, macroBomb(8)},
		{"broadcast past gate limit", Config{MaxGates: 1000}, `OPENQASM 2.0; qreg q[100000]; h q;`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = 1
			_, ts := newTestServer(t, tc.cfg)
			body := checkBody(tc.body, bellQASM)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, data := postJSON(t, ts.URL+"/v1/check", body)
			runtime.ReadMemStats(&after)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413; body %s", resp.StatusCode, data)
			}
			var eb ErrorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != CodeCircuitTooLarge {
				t.Fatalf("error body %s, want code %q", data, CodeCircuitTooLarge)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBound {
				t.Errorf("rejecting the body allocated %d bytes, want at most %d", alloc, allocBound)
			}
		})
	}
}
