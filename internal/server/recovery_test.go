package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"qcec/internal/core"
)

// Crash-recovery chaos tests.  The in-process stand-in for SIGKILL: block
// every worker mid-execution, abandon the journal without letting any
// finished record land, discard the server, and boot a fresh one over the
// same journal directory.  The serve-smoke harness repeats the same protocol
// against the real binary with an actual SIGKILL.

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
