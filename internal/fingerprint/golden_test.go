package fingerprint

import (
	"math"
	"testing"

	"qcec/internal/circuit"
)

// goldenCircuits are the circuits whose digests are pinned below: each one
// exercises a canonicalization rule of the byte stream, and "long" is big
// enough to span several hash writes.
func goldenCircuits() map[string]*circuit.Circuit {
	unsorted := circuit.New(5, "unsorted")
	unsorted.Add(circuit.Gate{Kind: circuit.X, Target: 0, Target2: -1,
		Controls: []circuit.Control{{Qubit: 3}, {Qubit: 1, Neg: true}, {Qubit: 4}}})
	unsorted.Add(circuit.Gate{Kind: circuit.P, Target: 2, Target2: -1, Params: []float64{0.25},
		Controls: []circuit.Control{{Qubit: 4}, {Qubit: 0}}})

	swap := circuit.New(4, "swap").Swap(3, 1).CSwap(2, 1, 0).Swap(0, 2)

	negZero := circuit.New(2, "negzero").RZ(math.Copysign(0, -1), 0).U3(0, math.Copysign(0, -1), 1, 1)

	nan := circuit.New(1, "nan").Phase(math.NaN(), 0).RX(math.Float64frombits(0x7ff8000000000001), 0)

	custom := circuit.New(2, "custom")
	custom.Add(circuit.Gate{Kind: circuit.Custom, Target: 1, Target2: -1, Label: "fsim",
		Controls: []circuit.Control{{Qubit: 0}},
		Mat:      [2][2]complex128{{complex(0.6, 0), complex(0, -0.8)}, {complex(0, -0.8), complex(math.Copysign(0, -1), 0.6)}}})

	long := circuit.New(6, "long")
	for i := 0; i < 400; i++ {
		q := i % 6
		switch i % 5 {
		case 0:
			long.H(q)
		case 1:
			long.CX(q, (q+1)%6)
		case 2:
			long.U3(float64(i)/7, -float64(i)/11, math.Pi/float64(i+1), q)
		case 3:
			long.CCX((q+2)%6, q, (q+4)%6)
		case 4:
			long.Swap(q, (q+3)%6)
		}
	}

	return map[string]*circuit.Circuit{
		"unsorted": unsorted, "swap": swap, "negzero": negZero,
		"nan": nan, "custom": custom, "long": long,
	}
}

// TestGoldenDigests pins digests computed before hashing was batched: the
// canonical byte stream, and with it every verdict-cache key and journaled
// fingerprint, must not change without a version bump.
func TestGoldenDigests(t *testing.T) {
	want := map[string]string{
		"unsorted": "919aa3875137554c4286593aa9a6a302d7f997327bca697d93368447de41dfa3",
		"swap":     "e15419c60424b9b3b3936223ea02424de13327cd34c471f59df30a6d34ebbd7c",
		"negzero":  "1671b853ab58a71577da0c9707a6affc633b25d2a4ebbf921e575aec4521608e",
		"nan":      "fae61fe48e7ca528807bda235ca21de36d14b9640ef484b28c0ea2cd1953bd8a",
		"custom":   "5432779d0f50b88337cd98878848f362d9efcb792421a57d16d610cba1dce430",
		"long":     "ceae7a259f2fcf4bc06e11b528e61b82b8189e4a413453174cc4b37131bfa968",
	}
	cs := goldenCircuits()
	for name, c := range cs {
		if got := Circuit(c).String(); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
	const wantPair = "251d3d26effc5614aaf73aeae303f88144a4cad9f32c66102eab2edfadca7eef"
	if got := Pair(cs["long"], cs["custom"]).String(); got != wantPair {
		t.Errorf("pair digest %s, want %s", got, wantPair)
	}
}
