package sim

import (
	"testing"

	"qcec/internal/bench"
)

// Simulation micro-benchmarks on the paper's benchmark families.  One run =
// one random-stimulus simulation of a program prepared once, i.e. one unit
// of the flow's cheap stage.

func BenchmarkSimQFT32(b *testing.B) {
	c := bench.QFT(32)
	s := New(32)
	prog := Prepare(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunProgram(prog, uint64(i)*0x9E3779B9&0xFFFFFFFF)
	}
}

func BenchmarkSimGrover6(b *testing.B) {
	c := bench.Grover(6, 0b101010)
	s := New(c.N)
	prog := Prepare(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunProgram(prog, uint64(i)&((1<<uint(c.N))-1))
	}
}

func BenchmarkSimSupremacy3x3(b *testing.B) {
	c := bench.Supremacy(3, 3, 12, 1)
	s := New(9)
	prog := Prepare(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunProgram(prog, uint64(i)&0x1FF)
	}
}

func BenchmarkSimChemistry2x2(b *testing.B) {
	c := bench.Chemistry(2, 2, 1)
	s := New(8)
	prog := Prepare(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunProgram(prog, uint64(i)&0xFF)
	}
}

func BenchmarkBuildUnitaryQFT12(b *testing.B) {
	// The expensive counterpart: building the full functionality.
	c := bench.QFT(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(12)
		BuildUnitary(s.P, c)
	}
}
