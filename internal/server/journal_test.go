package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qcec/internal/core"
)

// postWithKey POSTs body with an Idempotency-Key header.
func postWithKey(t *testing.T, url, body, key string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestIdempotencyKeySameJob: resubmitting with the same key returns the
// original job id (and, once done, the same verdict), not new work.
func TestIdempotencyKeySameJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := postWithKey(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM), "ci-run-42")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d; body %s", resp.StatusCode, data)
	}
	var first JobResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, first.JobID)

	resp, data = postWithKey(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM), "ci-run-42")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit = %d; body %s", resp.StatusCode, data)
	}
	var second JobResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.JobID != first.JobID {
		t.Errorf("resubmit job id = %s, want the original %s", second.JobID, first.JobID)
	}
	if second.Status != StatusDone || second.Result == nil {
		t.Errorf("resubmit status = %s (result %v), want done with the verdict inline",
			second.Status, second.Result)
	}

	_, body := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "qcecd_idempotent_hits_total 1") {
		t.Errorf("metrics missing the idempotent hit")
	}
}

// TestIdempotencyKeyConflict: the same key with a different question is a
// typed 409, not silent reuse of the wrong answer.
func TestIdempotencyKeyConflict(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postWithKey(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM), "k1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; body %s", resp.StatusCode, data)
	}
	resp, data = postWithKey(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellFlippedQASM), "k1")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting resubmit = %d, want 409; body %s", resp.StatusCode, data)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != CodeIdemConflict {
		t.Errorf("409 body = %s, want code %q", data, CodeIdemConflict)
	}
}

// TestIdempotentSyncCheck: /v1/check with a key registers the job, so a
// second keyed call attaches to the same execution and returns the same id.
func TestIdempotentSyncCheck(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, data := postWithKey(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM), "sync-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check = %d; body %s", resp.StatusCode, data)
	}
	var first CheckResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	resp, data = postWithKey(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM), "sync-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed re-check = %d; body %s", resp.StatusCode, data)
	}
	var second CheckResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.JobID != first.JobID {
		t.Errorf("re-check job id = %s, want %s", second.JobID, first.JobID)
	}
	if second.Verdict != first.Verdict {
		t.Errorf("re-check verdict = %s, want %s", second.Verdict, first.Verdict)
	}
}

// retainedJobHoldsNoSources fails t when the retained job id still holds
// circuits or QASM sources.
func retainedJobHoldsNoSources(t *testing.T, s *Server, id string) {
	t.Helper()
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j := s.byID[id]
	if j == nil {
		t.Fatalf("job %s is not retained", id)
	}
	if j.g1 != nil || j.g2 != nil || j.req.G != "" || j.req.Gp != "" {
		t.Errorf("retired job %s still holds its circuits or sources", id)
	}
}

// TestRetiredJobKeepsOnlyWhatItServes: a finished keyed job drops its
// circuits and sources when it retires, yet polls, keyed retries and key
// conflicts behave as before.  Covers an executed async job, an executed
// keyed sync check and a keyed cache hit.
func TestRetiredJobKeepsOnlyWhatItServes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	opts := CheckOptions{R: 3, Strategy: "gate-cost"}
	body := func(gp string) string {
		b, _ := json.Marshal(CheckRequest{G: bellQASM, Gp: gp, Options: opts})
		return string(b)
	}

	resp, data := postWithKey(t, ts.URL+"/v1/jobs", body(bellQASM), "retired-async")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; body %s", resp.StatusCode, data)
	}
	var first JobResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, first.JobID)

	resp, data = postWithKey(t, ts.URL+"/v1/check", body(bellFlippedQASM), "retired-sync")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed check = %d; body %s", resp.StatusCode, data)
	}
	var syncRes CheckResponse
	if err := json.Unmarshal(data, &syncRes); err != nil {
		t.Fatal(err)
	}
	// The same question under a new key is a cache hit, finished without
	// running.
	resp, data = postWithKey(t, ts.URL+"/v1/jobs", body(bellQASM), "retired-hit")
	var hit JobResponse
	if err := json.Unmarshal(data, &hit); err != nil || resp.StatusCode != http.StatusAccepted ||
		hit.Result == nil || !hit.Result.Cached {
		t.Fatalf("cache-hit submit = %d; body %s", resp.StatusCode, data)
	}

	cases := []struct {
		key, id, gp, verdict string
	}{
		{"retired-async", first.JobID, bellQASM, VerdictEquivalent},
		{"retired-sync", syncRes.JobID, bellFlippedQASM, VerdictNotEquivalent},
		{"retired-hit", hit.JobID, bellQASM, VerdictEquivalent},
	}
	for _, c := range cases {
		retainedJobHoldsNoSources(t, s, c.id)

		_, data := getJSON(t, ts.URL+"/v1/jobs/"+c.id)
		var polled JobResponse
		if err := json.Unmarshal(data, &polled); err != nil || polled.Result == nil || polled.Result.Verdict != c.verdict {
			t.Errorf("%s: poll = %s, want verdict %s", c.key, data, c.verdict)
		}

		resp, data = postWithKey(t, ts.URL+"/v1/jobs", body(c.gp), c.key)
		var retry JobResponse
		if err := json.Unmarshal(data, &retry); err != nil || resp.StatusCode != http.StatusAccepted ||
			retry.JobID != c.id || retry.Result == nil || retry.Result.Verdict != c.verdict {
			t.Errorf("%s: async retry = %d %s, want job %s with verdict %s", c.key, resp.StatusCode, data, c.id, c.verdict)
		}
		resp, data = postWithKey(t, ts.URL+"/v1/check", body(c.gp), c.key)
		var check CheckResponse
		if err := json.Unmarshal(data, &check); err != nil || resp.StatusCode != http.StatusOK ||
			check.JobID != c.id || check.Verdict != c.verdict {
			t.Errorf("%s: sync retry = %d %s, want job %s with verdict %s", c.key, resp.StatusCode, data, c.id, c.verdict)
		}

		other := bellFlippedQASM
		if c.gp == bellFlippedQASM {
			other = bellQASM
		}
		resp, data = postWithKey(t, ts.URL+"/v1/jobs", body(other), c.key)
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s: different question = %d, want 409; body %s", c.key, resp.StatusCode, data)
		}
	}
}

// restartableServer builds a server over dir's journal plus an HTTP front,
// returning a shutdown function that simulates a graceful restart boundary.
func restartableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	cfg.JournalDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	stop := func() {
		ts.Close()
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}
	return s, ts, stop
}

// TestJournalRestartServesFinishedVerdicts: finished jobs and their
// idempotency keys survive a graceful restart — polls and keyed resubmits
// land on the same job id and verdict with zero re-execution.
func TestJournalRestartServesFinishedVerdicts(t *testing.T) {
	dir := t.TempDir()

	_, ts, stop := restartableServer(t, dir, Config{Workers: 2})
	resp, data := postWithKey(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellFlippedQASM), "key-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; body %s", resp.StatusCode, data)
	}
	var jr JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, jr.JobID)
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+jr.JobID)
	var before JobResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	stop()

	// Restart over the same journal.
	s2, ts2, stop2 := restartableServer(t, dir, Config{Workers: 2})
	defer stop2()
	calls := 0
	s2.exec = func(j *job) core.Report { calls++; return core.Report{} }

	_, body = getJSON(t, ts2.URL+"/v1/jobs/"+jr.JobID)
	var after JobResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatalf("poll after restart: %v (body %s)", err, body)
	}
	if after.Status != StatusDone || after.Result == nil {
		t.Fatalf("after restart: status %s result %v, want the journaled verdict", after.Status, after.Result)
	}
	if after.Result.Verdict != before.Result.Verdict {
		t.Errorf("verdict flipped across restart: %s → %s", before.Result.Verdict, after.Result.Verdict)
	}

	// The idempotency key points at the recovered job, not new work.
	resp, data = postWithKey(t, ts2.URL+"/v1/jobs", checkBody(bellQASM, bellFlippedQASM), "key-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed resubmit = %d; body %s", resp.StatusCode, data)
	}
	var re JobResponse
	if err := json.Unmarshal(data, &re); err != nil {
		t.Fatal(err)
	}
	if re.JobID != jr.JobID {
		t.Errorf("resubmit id = %s, want recovered %s", re.JobID, jr.JobID)
	}
	if calls != 0 {
		t.Errorf("recovered verdict re-executed %d times, want 0", calls)
	}
}

// TestJournalRestartFreshIDsDoNotCollide: after recovery the id counter sits
// past every journaled id, so new submissions cannot collide with recovered
// jobs.
func TestJournalRestartFreshIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	_, ts, stop := restartableServer(t, dir, Config{Workers: 1})
	resp, data := postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; body %s", resp.StatusCode, data)
	}
	var first JobResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, first.JobID)
	stop()

	_, ts2, stop2 := restartableServer(t, dir, Config{Workers: 1})
	defer stop2()
	resp, data = postJSON(t, ts2.URL+"/v1/jobs", checkBody(bellQASM, bellFlippedQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart submit = %d; body %s", resp.StatusCode, data)
	}
	var fresh JobResponse
	if err := json.Unmarshal(data, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.JobID == first.JobID {
		t.Fatalf("fresh job reused recovered id %s", fresh.JobID)
	}
}

// TestJournalReplayTolerantOfGarbageTail: a torn, garbage-extended journal
// still recovers every complete record, and the truncated file accepts new
// appends afterwards.
func TestJournalReplayTolerantOfGarbageTail(t *testing.T) {
	dir := t.TempDir()
	_, ts, stop := restartableServer(t, dir, Config{Workers: 1})
	resp, data := postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; body %s", resp.StatusCode, data)
	}
	var jr JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, jr.JobID)
	stop()

	// Simulate a crash mid-append: garbage bytes on the tail.
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, ts2, stop2 := restartableServer(t, dir, Config{Workers: 1})
	defer stop2()
	if s2.journal.tornTails != 1 {
		t.Errorf("torn tail not detected on replay")
	}
	_, body := getJSON(t, ts2.URL+"/v1/jobs/"+jr.JobID)
	var after JobResponse
	if err := json.Unmarshal(body, &after); err != nil || after.Status != StatusDone {
		t.Fatalf("recovered job after torn tail: %s", body)
	}
	// The journal must accept appends again (truncation repositioned it).
	resp, data = postJSON(t, ts2.URL+"/v1/jobs", checkBody(bellQASM, bellFlippedQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-repair submit = %d; body %s", resp.StatusCode, data)
	}
}
