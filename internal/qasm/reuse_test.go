package qasm_test

import (
	"os"
	"path/filepath"
	"testing"

	"qcec/internal/qasm"
)

// FuzzParseReuse checks qasm.ParseInto on a storage that held another
// circuit against a parse into fresh storage: parsing a, then b, then a
// again into one storage gives, each time, what ParseLimited gives, error
// for error and field for field (Params by bit pattern, Custom by value).
// The limits are qcecd's defaults for qubits and a small gate bound, so
// both the limit errors and a parse cut short by one are reached.  Run the
// seeds with `go test`, explore with
// `go test -fuzz=FuzzParseReuse ./internal/qasm`.
func FuzzParseReuse(f *testing.F) {
	const bell = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
	wide := "OPENQASM 2.0;\nqreg a[3]; qreg b[3];\nccx a[0],a[1],b[2]; h a; cx a, b; u3(0.1,-0.2,0.3) b; cswap a[0],b[0],b[1];\n" +
		"gate g(t) x, y { crz(t) x, y; u2(t, -t) y; }\ng(pi/3) a[1], b[1]; g(1e-3) b, a;\n"
	pairs := [][2]string{
		{wide, bell},
		{bell, wide},
		{wide, wide},
		{"", bell},
		// a parse cut short by a semantic error, a lexing error or a limit
		{wide + "frobnicate a[0];\nx a[0];", bell},
		{bell, wide + "cx a[0], a[0];"},
		{wide + "x a[0]; $", wide},
		{"qreg q[2]; h q; " + "cx q[0],q[1]; u3(1,2,3) q[1]; ", "qreg q[65];"},
		{"gate m a { x a; x a; } gate n a { m a; m a; } gate o a { n a; n a; } qreg q[8]; o q;", bell},
		// the client benchmark's cosmetic variant of a routed circuit
		{bell, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg r417[3]; // rerun 12345\n" +
			"u3(0.5,0.25,-0.125) r417[0];\nCX r417[0] , r417[1];\ncnot r417[1] , r417[2];\n" +
			"u1(0.78539816339744828) r417[2];\np(-1.5707963267948966) r417[0];\n"},
	}
	files, _ := filepath.Glob(filepath.Join("..", "..", "circuits", "*.qasm"))
	for i, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, [2]string{string(data), pairs[i%len(pairs)][1]})
	}
	for _, p := range pairs {
		f.Add(p[0], p[1])
	}
	const maxQubits, maxGates = 64, 2000
	f.Fuzz(func(t *testing.T, a, b string) {
		var st qasm.Storage
		for _, src := range []string{a, b, a} {
			got, gotErr := qasm.ParseInto(&st, src, maxQubits, maxGates)
			want, wantErr := qasm.ParseLimited(src, maxQubits, maxGates)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("ParseInto error %v, fresh parse error %v", gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if diff := diffPrograms(got, want); diff != "" {
				t.Fatal(diff)
			}
		}
	})
}
