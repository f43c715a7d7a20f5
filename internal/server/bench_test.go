package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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
	req, fp := routedRequest(b)

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

// routedRequest returns the check request of the routed rev5 pair of ec's
// BenchmarkCheckRoutedPair (about 8,400 gates and 110 KB of QASM a side)
// and the pair's fingerprint.
func routedRequest(tb testing.TB) (CheckRequest, string) {
	tb.Helper()
	src, err := bench.RandomReversible(5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g := decompose.Circuit(src, decompose.LevelCX)
	m, err := mapping.Map(g, mapping.Options{Arch: mapping.Ring(g.N), RestoreLayout: true, DecomposeSwaps: true})
	if err != nil {
		tb.Fatal(err)
	}
	req := CheckRequest{}
	if req.G, err = qasm.WriteString(g); err != nil {
		tb.Fatal(err)
	}
	if req.Gp, err = qasm.WriteString(m.Circuit); err != nil {
		tb.Fatal(err)
	}
	return req, fingerprint.Pair(g, m.Circuit).String()
}

// BenchmarkCacheHit measures the intake of a repeated question: a cosmetic
// variant of the routed rev5 pair's check request (register renamed, cx
// spelled CX, p spelled u1, commas spaced, a comment added) answered from
// the verdict cache through the real handler.  Each iteration pays what a
// cache hit of the qcecd client benchmark's ci-rerun workload pays in the
// daemon: reading and decoding the body, parsing both circuits, the pair
// fingerprint, the cache lookup and the response.
func BenchmarkCacheHit(b *testing.B) {
	hit, body := cacheHitServer(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/hit")
}

// TestCacheHitAllocations: a cache hit of BenchmarkCacheHit allocates far
// less than the circuits it parses, because the body continues in a reused
// buffer and both circuits are parsed into reused storage.  Without that
// reuse a hit allocates about 2.08 MB (two fresh gate slices and a body
// buffer that doubles as it is read); with it, about 0.26 MB, mostly the
// decoded QASM strings.  So a later edit cannot quietly turn the reuse off.
func TestCacheHitAllocations(t *testing.T) {
	const hits, limit = 20, 512 << 10
	hit, _ := cacheHitServer(t)
	for i := 0; i < 3; i++ { // fill the free lists
		hit()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	if perHit := (after.TotalAlloc - before.TotalAlloc) / hits; perHit > limit {
		t.Fatalf("a cache hit allocated %d bytes, want at most %d", perHit, limit)
	} else {
		t.Logf("%d bytes per hit", perHit)
	}
}

// cacheHitServer starts a server that has answered the routed rev5 pair
// and returns a function posting a cosmetic variant of it through the real
// handler, which the cache answers, and that variant's body.  The server
// is drained when tb ends.
func cacheHitServer(tb testing.TB) (hit func(), body []byte) {
	tb.Helper()
	req, _ := routedRequest(tb)
	s, err := New(Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	cached := func(rec *httptest.ResponseRecorder) bool {
		var res CheckResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			tb.Fatal(err)
		}
		return res.Cached
	}
	if cached(post(marshalCheck(tb, req))) {
		tb.Fatal("the first request was answered from the cache")
	}
	cosmetic := strings.NewReplacer("q[", "r417[", "\ncx ", "\nCX ", "\np(", "\nu1(", ",", " , ")
	variant := CheckRequest{
		G:  strings.Replace(cosmetic.Replace(req.G), ";\n", "; // rerun 12345\n", 1),
		Gp: strings.Replace(cosmetic.Replace(req.Gp), ";\n", "; // rerun 12345\n", 1),
	}
	body = marshalCheck(tb, variant)
	if !cached(post(body)) {
		tb.Fatal("the cosmetic variant missed the cache")
	}
	return func() { post(body) }, body
}

func marshalCheck(tb testing.TB, req CheckRequest) []byte {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}
