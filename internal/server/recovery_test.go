package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qcec/internal/core"
	"qcec/internal/wal"
)

// Crash-recovery chaos tests.  The in-process stand-in for SIGKILL: block
// every worker mid-execution, abandon the journal without letting any
// finished record land, discard the server, and boot a fresh one over the
// same journal directory.  The serve-smoke harness repeats the same protocol
// against the real binary with an actual SIGKILL.

// crash abandons the journal as SIGKILL does: the descriptor closes without
// Sync and the sync loop stops without a last group commit, so the file
// keeps only what its writes left in the page cache, and a durable appender
// still parked gets errJournalClosed.
func (jl *journal) crash() {
	jl.mu.Lock()
	if jl.f != nil {
		_ = jl.f.Close()
		jl.f = nil
	}
	jl.mu.Unlock()
	select {
	case <-jl.closeCh:
	default:
		close(jl.closeCh)
	}
	<-jl.doneCh
}

// TestJournalCrashPoints replays a recorded journal cut at every record
// boundary and inside every record.  For each cut, every job whose accepted
// record lies wholly inside it reaches the verdict of an uninterrupted run,
// no other job id appears, and only a cut inside a record is a torn tail.
func TestJournalCrashPoints(t *testing.T) {
	ghz3 := ghzQASM(3)
	questions := []struct {
		key, g, gp string
		endpoint   string // how the recorded run submits it
	}{
		{"finished-eq", bellQASM, bellQASM, "/v1/check"},
		{"finished-hit", bellQASM, bellQASM, "/v1/check"}, // answered from the cache
		{"finished-neq", bellQASM, bellFlippedQASM, "/v1/jobs"},
		{"running", ghz3, ghz3, "/v1/jobs"}, // blocked after its started record
		{"queued", ghz3, ghz3 + "x q[1];\n", "/v1/jobs"},
	}

	// The uninterrupted run: a journal-less server answers every question.
	_, plain := newTestServer(t, Config{Workers: 1})
	want := make(map[string]string) // key → verdict
	for _, q := range questions {
		want[q.key] = doCheck(t, plain.URL, checkBody(q.g, q.gp)).Verdict
	}

	// The recorded run, ended by a crash.
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8}
	s, ts, _ := restartableServer(t, dir, cfg)
	run, entered, block := s.exec, make(chan struct{}), make(chan struct{})
	s.exec = func(j *job) core.Report {
		if j.idemKey == "running" {
			close(entered)
			<-block
		}
		return run(j)
	}
	keyOf := make(map[string]string) // job id → key
	for _, q := range questions {
		resp, data := postWithKey(t, ts.URL+q.endpoint, checkBody(q.g, q.gp), q.key)
		var jr JobResponse // a CheckResponse carries its job id under the same name
		if err := json.Unmarshal(data, &jr); err != nil || jr.JobID == "" || resp.StatusCode >= 300 {
			t.Fatalf("%s: submit = %d; body %s", q.key, resp.StatusCode, data)
		}
		keyOf[jr.JobID] = q.key
		switch q.key {
		case "running":
			<-entered
		case "finished-neq":
			waitDone(t, ts, jr.JobID)
		}
	}
	ts.Close()
	s.journal.crash()
	close(block)
	ctx, cancel := contextWithTimeout(5 * time.Second)
	_ = s.Shutdown(ctx)
	cancel()

	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{0}                  // every record boundary
	acceptedEnd := make(map[string]int64) // job id → end of its accepted record
	finished := 0
	sc := wal.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case recAccepted:
			acceptedEnd[rec.Job] = sc.Offset()
		case recFinished:
			finished++
		}
		bounds = append(bounds, sc.Offset())
	}
	if sc.Torn() || sc.Offset() != int64(len(data)) || len(acceptedEnd) != len(questions) || finished != 3 {
		t.Fatalf("recorded journal: torn %v, %d of %d bytes, %d accepted and %d finished records",
			sc.Torn(), sc.Offset(), len(data), len(acceptedEnd), finished)
	}

	type cut struct {
		at   int64
		torn bool
	}
	var cuts []cut
	for i, end := range bounds {
		if i > 0 {
			cuts = append(cuts, cut{(bounds[i-1] + end) / 2, true})
		}
		cuts = append(cuts, cut{end, false})
	}
	for _, c := range cuts {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, journalFile), data[:c.at], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, ts2, stop2 := restartableServer(t, cutDir, cfg)
		for id, key := range keyOf {
			if end, ok := acceptedEnd[id]; !ok || end > c.at {
				continue
			}
			waitDone(t, ts2, id)
			_, body := getJSON(t, ts2.URL+"/v1/jobs/"+id)
			var jr JobResponse
			if err := json.Unmarshal(body, &jr); err != nil || jr.Result == nil || jr.Result.Verdict != want[key] {
				t.Errorf("cut at %d: job %s (%s) = %s, want verdict %s", c.at, id, key, body, want[key])
			}
		}
		s2.jobsMu.Lock()
		for id := range s2.byID {
			if end, ok := acceptedEnd[id]; !ok || end > c.at {
				t.Errorf("cut at %d: job %s is known, but its accepted record is not in the cut", c.at, id)
			}
		}
		s2.jobsMu.Unlock()
		torn := 0
		if c.torn {
			torn = 1
		}
		assertMetric(t, getMetrics(t, ts2.URL), "qcecd_journal_torn_tails", torn)
		stop2()
	}
}

// TestCrashRecoveryNoLostJobs: every job accepted (202'd) before the crash
// reaches a terminal verdict after restart, the verdicts match what an
// uninterrupted run produces, and an idempotent resubmit lands on the
// recovered job instead of duplicating work.
func TestCrashRecoveryNoLostJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, QueueDepth: 16}

	s, ts, _ := restartableServer(t, dir, cfg)
	block := make(chan struct{})
	s.exec = func(j *job) core.Report { <-block; return core.Report{} }

	// Six accepted jobs: two blocked inside workers (started records on
	// disk), four still queued (accepted records only).  Known verdicts.
	type want struct {
		id      string
		verdict string
	}
	var wants []want
	for i := 0; i < 6; i++ {
		body := checkBody(bellQASM, bellQASM)
		verdict := VerdictEquivalent
		if i%2 == 1 {
			body = checkBody(bellQASM, bellFlippedQASM)
			verdict = VerdictNotEquivalent
		}
		key := ""
		if i == 0 {
			key = "crash-survivor"
		}
		resp, data := postWithKey(t, ts.URL+"/v1/jobs", body, key)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d; body %s", i, resp.StatusCode, data)
		}
		var jr JobResponse
		if err := json.Unmarshal(data, &jr); err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{jr.JobID, verdict})
	}
	// Let the workers actually start their two jobs so started records hit
	// the journal before the crash.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Crash: HTTP front gone, journal abandoned un-synced-tail and all, no
	// finished record ever written.  Then release the zombie workers and
	// reap the old pool so the test process stays clean.
	ts.Close()
	s.journal.crash()
	close(block)
	ctx, cancel := contextWithTimeout(5 * time.Second)
	_ = s.Shutdown(ctx)
	cancel()

	// Restart over the same journal with the real executor.
	s2, ts2, stop2 := restartableServer(t, dir, cfg)
	defer stop2()

	// Zero lost jobs: every pre-crash id reaches a terminal verdict, and no
	// verdict flips against the deterministic expectation.
	for _, w := range wants {
		waitDone(t, ts2, w.id)
		_, body := getJSON(t, ts2.URL+"/v1/jobs/"+w.id)
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatalf("job %s: %v (body %s)", w.id, err, body)
		}
		if jr.Result == nil || jr.Result.Verdict != w.verdict {
			t.Errorf("job %s: verdict %+v, want %s", w.id, jr.Result, w.verdict)
		}
	}
	if got := s2.journal.requeued; got != 6 {
		t.Errorf("requeued = %d, want 6", got)
	}

	// Idempotent resubmit after the crash attaches to the recovered job.
	resp, data := postWithKey(t, ts2.URL+"/v1/jobs", checkBody(bellQASM, bellQASM), "crash-survivor")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit = %d; body %s", resp.StatusCode, data)
	}
	var re JobResponse
	if err := json.Unmarshal(data, &re); err != nil {
		t.Fatal(err)
	}
	if re.JobID != wants[0].id {
		t.Errorf("resubmit id = %s, want recovered %s", re.JobID, wants[0].id)
	}

	_, body := getJSON(t, ts2.URL+"/metrics")
	if !strings.Contains(string(body), "qcecd_journal_requeued_jobs 6") {
		t.Errorf("metrics missing qcecd_journal_requeued_jobs 6")
	}
}

// TestCrashRecoveryRepeated: two crash/restart cycles in a row — recovery
// must be idempotent, never duplicating or resurrecting aborted work.
func TestCrashRecoveryRepeated(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8}

	s, ts, _ := restartableServer(t, dir, cfg)
	block := make(chan struct{})
	s.exec = func(j *job) core.Report { <-block; return core.Report{} }
	resp, data := postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; body %s", resp.StatusCode, data)
	}
	var jr JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.journal.crash()
	close(block)
	ctx, cancel := contextWithTimeout(5 * time.Second)
	_ = s.Shutdown(ctx)
	cancel()

	// First restart also crashes before the job can finish.  The blocking
	// executor is installed via the config hook — the recovered job requeues
	// the moment New returns, so swapping s2.exec afterwards would race.
	block2 := make(chan struct{})
	cfg2 := cfg
	cfg2.testExec = func(j *job) core.Report { <-block2; return core.Report{} }
	s2, ts2, _ := restartableServer(t, dir, cfg2)
	deadline := time.Now().Add(5 * time.Second)
	for s2.inflight.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ts2.Close()
	s2.journal.crash()
	close(block2)
	ctx2, cancel2 := contextWithTimeout(5 * time.Second)
	_ = s2.Shutdown(ctx2)
	cancel2()

	// Second restart finishes the job for real.
	s3, ts3, stop3 := restartableServer(t, dir, cfg)
	defer stop3()
	waitDone(t, ts3, jr.JobID)
	_, body := getJSON(t, ts3.URL+"/v1/jobs/"+jr.JobID)
	var final JobResponse
	if err := json.Unmarshal(body, &final); err != nil || final.Result == nil {
		t.Fatalf("job after two crashes: %s", body)
	}
	if final.Result.Verdict != VerdictEquivalent {
		t.Errorf("verdict = %s, want %s", final.Result.Verdict, VerdictEquivalent)
	}
	if got := s3.journal.requeued; got != 1 {
		t.Errorf("second recovery requeued = %d, want exactly the one job", got)
	}
}

// TestRecoveredKeyedRetryKeepsOptions: a keyed check with non-default
// options that finished before a restart is answered, after the restart,
// under its original job id when retried with the same key and options.
// The recovered job keeps the options, not the sources.
func TestRecoveredKeyedRetryKeepsOptions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1}
	cases := []struct {
		key  string
		opts CheckOptions
	}{
		{"opts-r", CheckOptions{R: 3}},
		{"opts-alias", CheckOptions{Strategy: "gate-cost"}},
	}
	body := func(opts CheckOptions) string {
		b, _ := json.Marshal(CheckRequest{G: bellQASM, Gp: bellQASM, Options: opts})
		return string(b)
	}

	_, ts, stop := restartableServer(t, dir, cfg)
	ids := make([]string, len(cases))
	for i, c := range cases {
		resp, data := postWithKey(t, ts.URL+"/v1/check", body(c.opts), c.key)
		var cr CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: check = %d; body %s", c.key, resp.StatusCode, data)
		}
		ids[i] = cr.JobID
	}
	stop()

	s2, ts2, stop2 := restartableServer(t, dir, cfg)
	defer stop2()
	for i, c := range cases {
		retainedJobHoldsNoSources(t, s2, ids[i])
		resp, data := postWithKey(t, ts2.URL+"/v1/check", body(c.opts), c.key)
		var cr CheckResponse
		if err := json.Unmarshal(data, &cr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: retry after restart = %d, want 200; body %s", c.key, resp.StatusCode, data)
		}
		if cr.JobID != ids[i] || cr.Verdict != VerdictEquivalent {
			t.Errorf("%s: retry answered job %s (%s), want %s (%s)", c.key, cr.JobID, cr.Verdict, ids[i], VerdictEquivalent)
		}
		other := c.opts
		other.Seed++
		resp, data = postWithKey(t, ts2.URL+"/v1/check", body(other), c.key)
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s: different options after restart = %d, want 409; body %s", c.key, resp.StatusCode, data)
		}
	}
}
