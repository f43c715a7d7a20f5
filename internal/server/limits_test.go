package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// broadcastBomb asks for two million wires and one gate per wire in 57
// bytes.
const broadcastBomb = `OPENQASM 2.0; include "qelib1.inc"; qreg q[2000000]; h q;`

// macroBomb nests levels gate macros, each calling the one below four
// times, so a single call emits 4^levels gates.
func macroBomb(levels int) string {
	return macroChain(levels, "x a; x a; x a; x a;")
}

// macroChain nests levels gate macros whose innermost body is leaf, each
// level calling the one below four times.
func macroChain(levels int, leaf string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\nqreg q[1];\ngate m0 a { %s }\n", leaf)
	for k := 1; k < levels; k++ {
		fmt.Fprintf(&b, "gate m%d a { m%[2]d a; m%[2]d a; m%[2]d a; m%[2]d a; }\n", k, k-1)
	}
	fmt.Fprintf(&b, "m%d q[0];\n", levels-1)
	return b.String()
}

// TestExpansionBoundedByLimits: a short body whose expansion passes the
// size envelope is rejected with 413 within a second while the parser
// expands it, having allocated a small fraction of what the full expansion
// takes (checked only after parsing, the 8-level macro bomb allocated about
// 46 MiB and the 100,000-wire broadcast about 81 MiB).  Empty-body macros
// emit no gates, so only the macro-call budget derived from MaxGates stops
// the depth-16 chain, which would otherwise expand 4^15 calls in the HTTP
// handler.
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
		{"empty macros past call budget", Config{MaxQubits: 16, MaxGates: 1000}, macroChain(16, "")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = 1
			_, ts := newTestServer(t, tc.cfg)
			body := checkBody(tc.body, bellQASM)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			resp, data := postJSON(t, ts.URL+"/v1/check", body)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if elapsed > time.Second {
				t.Errorf("rejecting the body took %v, want under 1s", elapsed)
			}
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

// TestNestedMacrosWithinLimits: nested macros that emit real gates within
// the limits parse and check under the macro-call budget.
func TestNestedMacrosWithinLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxQubits: 16, MaxGates: 1000})
	// Four levels around four X gates: 256 gates from 85 macro calls.
	nested := macroChain(4, "x a; x a; x a; x a;")
	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(nested, nested))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil || res.Verdict != VerdictEquivalent {
		t.Fatalf("verdict %q (err %v), want equivalent", res.Verdict, err)
	}
}
