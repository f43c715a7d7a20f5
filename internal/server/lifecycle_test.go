package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"qcec/internal/core"
)

// TestKeylessCheckIsNotTracked: a /v1/check without an Idempotency-Key,
// whether it runs or the cache answers it, is never registered for lookup
// and never journaled, even with a journal configured.  Both qcecd client
// benchmark workloads send such checks.
func TestKeylessCheckIsNotTracked(t *testing.T) {
	dir := t.TempDir()
	s, ts, stop := restartableServer(t, dir, Config{Workers: 1})
	defer stop()
	for i, wantCached := range []bool{false, true} {
		res := doCheck(t, ts.URL, checkBody(bellQASM, bellQASM))
		if res.Verdict != VerdictEquivalent || res.Cached != wantCached {
			t.Fatalf("check %d: %s (cached %v), want equivalent with cached %v", i, res.Verdict, res.Cached, wantCached)
		}
	}
	s.jobsMu.Lock()
	tracked, keys, retained := len(s.byID), len(s.idemByKey), len(s.doneOrder)
	s.jobsMu.Unlock()
	if tracked != 0 || keys != 0 || retained != 0 {
		t.Errorf("keyless checks left %d tracked jobs, %d keys and %d retained jobs, want none", tracked, keys, retained)
	}
	if n := s.journal.appends.Load(); n != 0 {
		t.Errorf("keyless checks appended %d journal records, want none", n)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Errorf("journal after keyless checks: %v, size %d, want an empty file", err, fi.Size())
	}
}

// finishFault reports what is wrong with the finished job id on s, "" when
// nothing is: it must be done with its verdict, hold no circuits or
// sources, be retained for polls, and, when keyed, be its key's holder.
// Callers hold s.jobsMu.
func finishFault(s *Server, id, key, verdict string) string {
	j := s.byID[id]
	switch {
	case j == nil:
		return "not tracked"
	case j.statusString() != StatusDone || j.result == nil || j.result.Verdict != verdict || j.result.JobID != id:
		return fmt.Sprintf("status %s with result %+v, want done with verdict %s under its id", j.statusString(), j.result, verdict)
	case j.g1 != nil || j.g2 != nil || j.req.G != "" || j.req.Gp != "":
		return "still holds its circuits or sources"
	case !slices.Contains(s.doneOrder, id):
		return "not retained"
	case j.idemKey != key || key != "" && s.idemByKey[key] != id:
		return fmt.Sprintf("key %q maps to %q, want it to map to the job", key, s.idemByKey[key])
	}
	select {
	case <-j.done:
		return ""
	default:
		return "done never closed"
	}
}

// retiredWhenWoken parks a goroutine on j's done channel and reports what
// finishFault finds the moment it is woken.
func retiredWhenWoken(s *Server, j *job, verdict string) <-chan string {
	fault := make(chan string, 1)
	go func() {
		<-j.done
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
		fault <- finishFault(s, j.id, j.idemKey, verdict)
	}()
	return fault
}

// TestEveryJobEndsTheSameWay: a job ends in one way whether a worker ran it
// (a keyed /v1/check, a /v1/jobs submission), the cache answered it (a
// keyed /v1/check, a /v1/jobs submission) or the journal replayed it after
// a restart: done with its verdict, holding no sources, retained, and its
// key's holder.  A goroutine woken by the job's done channel already finds
// it so.
func TestEveryJobEndsTheSameWay(t *testing.T) {
	dir := t.TempDir()
	s, ts, stop := restartableServer(t, dir, Config{Workers: 1})
	var mu sync.Mutex
	var woken []<-chan string
	s.exec = func(j *job) core.Report {
		verdict := VerdictEquivalent
		if j.req.Gp != bellQASM {
			verdict = VerdictNotEquivalent
		}
		mu.Lock()
		woken = append(woken, retiredWhenWoken(s, j, verdict))
		mu.Unlock()
		return s.runCheck(j)
	}

	type ending struct {
		name, url, key, gp, verdict string
		cached                      bool
		id                          string
	}
	endings := []ending{
		{name: "keyed check, executed", url: "/v1/check", key: "run-sync", gp: bellFlippedQASM, verdict: VerdictNotEquivalent},
		{name: "submitted job, executed", url: "/v1/jobs", gp: bellQASM, verdict: VerdictEquivalent},
		{name: "keyed check, cache hit", url: "/v1/check", key: "hit-sync", gp: bellQASM, verdict: VerdictEquivalent, cached: true},
		{name: "submitted job, cache hit", url: "/v1/jobs", key: "hit-async", gp: bellFlippedQASM, verdict: VerdictNotEquivalent, cached: true},
	}
	for i := range endings {
		e := &endings[i]
		resp, data := postWithKey(t, ts.URL+e.url, checkBody(bellQASM, e.gp), e.key)
		var answer struct {
			JobID  string         `json:"job_id"`
			Result *CheckResponse `json:"result"`
			Cached bool           `json:"cached"`
		}
		if err := json.Unmarshal(data, &answer); err != nil || resp.StatusCode >= 300 {
			t.Fatalf("%s: %d %s", e.name, resp.StatusCode, data)
		}
		e.id = answer.JobID
		if e.url == "/v1/jobs" {
			waitDone(t, ts, e.id)
			_, data = getJSON(t, ts.URL+"/v1/jobs/"+e.id)
			var jr JobResponse
			if err := json.Unmarshal(data, &jr); err != nil || jr.Result == nil {
				t.Fatalf("%s: poll %s", e.name, data)
			}
			answer.Cached = jr.Result.Cached
		}
		if answer.Cached != e.cached {
			t.Errorf("%s: cached %v, want %v", e.name, answer.Cached, e.cached)
		}
	}
	check := func(s *Server, when string) {
		t.Helper()
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
		for _, e := range endings {
			if fault := finishFault(s, e.id, e.key, e.verdict); fault != "" {
				t.Errorf("%s, %s: job %s %s", e.name, when, e.id, fault)
			}
			if cached := s.byID[e.id].result.Cached; cached != e.cached {
				t.Errorf("%s, %s: result cached %v, want %v", e.name, when, cached, e.cached)
			}
		}
	}
	check(s, "as it ended")
	mu.Lock()
	if len(woken) != 2 {
		t.Errorf("%d executions, want 2", len(woken))
	}
	for _, w := range woken {
		if fault := <-w; fault != "" {
			t.Errorf("executed job, woken by done: %s", fault)
		}
	}
	mu.Unlock()
	// The admission path of both handlers, with a goroutine parked on the
	// job before the cache answers it.
	for _, key := range []string{"hit-direct", ""} {
		j, apiErr := s.buildJob(CheckRequest{G: bellQASM, Gp: bellQASM})
		if apiErr != nil {
			t.Fatal(apiErr.msg)
		}
		j.idemKey = key
		woken := retiredWhenWoken(s, j, VerdictEquivalent)
		if a := s.admit(httptest.NewRecorder(), j, true); a != j {
			t.Fatalf("cache hit with key %q: admit answered with %v, want the job itself", key, a)
		}
		if fault := <-woken; fault != "" {
			t.Errorf("cache hit with key %q, woken by done: %s", key, fault)
		}
	}
	stop()

	s2, _, stop2 := restartableServer(t, dir, Config{Workers: 1})
	defer stop2()
	check(s2, "replayed")
}

// TestReplayRebuildsCacheKeysWithoutParsing: replay keys a finished job's
// verdict from its journaled fingerprint and options, so the verdict goes
// back into the cache under the key admission computes for the same request
// even when the restarted daemon's size envelope no longer admits the
// circuits.
func TestReplayRebuildsCacheKeysWithoutParsing(t *testing.T) {
	dir := t.TempDir()
	req := CheckRequest{G: bellQASM, Gp: bellQASM, Options: CheckOptions{Strategy: "gate-cost", UpToGlobalPhase: true}}
	body, _ := json.Marshal(req)
	s, ts, stop := restartableServer(t, dir, Config{Workers: 1})
	resp, data := postWithKey(t, ts.URL+"/v1/check", string(body), "replay-key")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed check = %d; body %s", resp.StatusCode, data)
	}
	j, apiErr := s.buildJob(req)
	if apiErr != nil {
		t.Fatal(apiErr.msg)
	}
	j.cancel(nil)
	stop()

	s2, _, stop2 := restartableServer(t, dir, Config{Workers: 1, MaxGates: 1})
	defer stop2()
	if _, apiErr := s2.buildJob(req); apiErr == nil || apiErr.code != CodeCircuitTooLarge {
		t.Fatalf("restarted daemon admits the 2-gate circuits under MaxGates 1: %+v", apiErr)
	}
	res, ok := s2.cache.get(j.ckey)
	if !ok || res.Verdict != VerdictEquivalent {
		t.Fatalf("replayed verdict under the admission key: %+v (found %v), want equivalent", res, ok)
	}
}

// TestConcurrentKeyedRequestsShareOneJob: keyed requests that race to
// claim one key, on either endpoint, all land on the one job that claimed
// it, which runs once.
func TestConcurrentKeyedRequestsShareOneJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	var runs sync.WaitGroup
	var mu sync.Mutex
	executions := 0
	s.exec = func(j *job) core.Report {
		mu.Lock()
		executions++
		mu.Unlock()
		<-release
		return s.runCheck(j)
	}
	const n = 8
	ids := make([]string, n)
	for i := range n {
		runs.Add(1)
		go func() {
			defer runs.Done()
			url := ts.URL + "/v1/check"
			if i%2 == 1 {
				url = ts.URL + "/v1/jobs"
			}
			resp, data := postWithKey(t, url, checkBody(bellQASM, bellQASM), "burst")
			var answer struct {
				JobID string `json:"job_id"`
			}
			if err := json.Unmarshal(data, &answer); err != nil || resp.StatusCode >= 300 {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, data)
			}
			ids[i] = answer.JobID
		}()
	}
	// The asynchronous requests answer at once; the synchronous ones wait
	// for the one execution.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	runs.Wait()
	for i, id := range ids {
		if id != ids[0] || id == "" {
			t.Errorf("request %d answered by job %q, request 0 by %q", i, id, ids[0])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Errorf("%d executions, want 1", executions)
	}
}

// TestReplayedKeyBelongsToItsLastClaimant: a key released by an evicted
// job and claimed again belongs, after a restart, to the job that claimed
// it last.
func TestReplayedKeyBelongsToItsLastClaimant(t *testing.T) {
	dir := t.TempDir()
	_, ts, stop := restartableServer(t, dir, Config{Workers: 1, CompletedJobs: 1})
	submit := func(url, gp, key string) string {
		t.Helper()
		resp, data := postWithKey(t, url+"/v1/jobs", checkBody(bellQASM, gp), key)
		var jr JobResponse
		if err := json.Unmarshal(data, &jr); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit with key %q = %d; body %s", key, resp.StatusCode, data)
		}
		waitDone(t, ts, jr.JobID)
		return jr.JobID
	}
	first := submit(ts.URL, bellQASM, "reused")
	submit(ts.URL, bellFlippedQASM, "") // evicts the first job, releasing its key
	last := submit(ts.URL, bellFlippedQASM, "reused")
	if last == first {
		t.Fatalf("the released key still answers with job %s", first)
	}
	stop()

	_, ts2, stop2 := restartableServer(t, dir, Config{Workers: 1})
	defer stop2()
	resp, data := postWithKey(t, ts2.URL+"/v1/jobs", checkBody(bellQASM, bellFlippedQASM), "reused")
	var jr JobResponse
	if err := json.Unmarshal(data, &jr); err != nil || resp.StatusCode != http.StatusAccepted || jr.JobID != last {
		t.Errorf("keyed retry after restart = %d %s, want job %s", resp.StatusCode, data, last)
	}
	if resp, _ := postWithKey(t, ts2.URL+"/v1/jobs", checkBody(bellQASM, bellQASM), "reused"); resp.StatusCode != http.StatusConflict {
		t.Errorf("the first job's question under the reused key = %d, want 409", resp.StatusCode)
	}
}
