package sim

import (
	"testing"

	"qcec/internal/bench"
	"qcec/internal/dd"
)

// The kernel/legacy pair keeps the direct kernel's margin over the
// full-matrix reference path (legacy_test.go) visible on one workload.

func BenchmarkKernelGrover(b *testing.B) {
	c := bench.Grover(6, 0b101010)
	s := New(c.N)
	prog := Prepare(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunProgram(prog, uint64(i)&uint64(1<<uint(c.N)-1))
	}
}

func BenchmarkLegacyGrover(b *testing.B) {
	c := bench.Grover(6, 0b101010)
	p := dd.NewDefault(c.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLegacy(p, c, uint64(i)&uint64(1<<uint(c.N)-1))
	}
}
