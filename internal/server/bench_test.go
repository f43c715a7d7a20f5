package server

import (
	"fmt"
	"testing"
	"time"

	"qcec/internal/bench"
	"qcec/internal/decompose"
	"qcec/internal/fingerprint"
	"qcec/internal/mapping"
	"qcec/internal/qasm"
)

// BenchmarkJournalReplay measures what a restart costs per finished job.  It
// writes a journal of finished keyed jobs, each asking about the routed
// rev5 pair of ec's BenchmarkCheckRoutedPair (about 8,400 gates and 110 KB
// of QASM a side), as qcecd journals them, and times New replaying it.  It
// reports the time per finished job as ms/job.
func BenchmarkJournalReplay(b *testing.B) {
	const jobs = 100
	src, err := bench.RandomReversible(5, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := decompose.Circuit(src, decompose.LevelCX)
	m, err := mapping.Map(g, mapping.Options{Arch: mapping.Ring(g.N), RestoreLayout: true, DecomposeSwaps: true})
	if err != nil {
		b.Fatal(err)
	}
	req := CheckRequest{}
	if req.G, err = qasm.WriteString(g); err != nil {
		b.Fatal(err)
	}
	if req.Gp, err = qasm.WriteString(m.Circuit); err != nil {
		b.Fatal(err)
	}
	fp := fingerprint.Pair(g, m.Circuit).String()

	dir := b.TempDir()
	jl, _, err := openJournal(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("j%08d", i)
		res := &CheckResponse{JobID: id, Verdict: VerdictEquivalent, NumSims: 32, DecidedBy: "sim", Exhaustive: true, MinFidelity: 1}
		for _, rec := range []journalRecord{
			{Type: recAccepted, Job: id, FP: fp, Key: fmt.Sprintf("ci-%d", i), Req: &req},
			{Type: recStarted, Job: id, Attempt: 1},
			{Type: recFinished, Job: id, FP: fp, Res: res},
		} {
			if err := jl.append(rec, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	jl.close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Workers: 1, JournalDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s.journal.recovered != jobs {
			b.Fatalf("replay served %d finished jobs, want %d", s.journal.recovered, jobs)
		}
		ctx, cancel := contextWithTimeout(5 * time.Second)
		_ = s.Shutdown(ctx)
		cancel()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N*jobs), "ms/job")
}
