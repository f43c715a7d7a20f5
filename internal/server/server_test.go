package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"qcec/internal/bench"
	"qcec/internal/core"
	"qcec/internal/decompose"
	"qcec/internal/mapping"
	"qcec/internal/qasm"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

const bellQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
`

// bellFlippedQASM differs from bellQASM by a trailing X — a non-equivalent
// pair any single stimulus distinguishes.
const bellFlippedQASM = bellQASM + "x q[0];\n"

// newTestServer starts a server plus an HTTP front for it and tears both
// down (drain first, then the listener) at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func checkBody(g, gp string) string {
	b, _ := json.Marshal(CheckRequest{G: g, Gp: gp})
	return string(b)
}

func TestCheckEquivalentPair(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Verdict != VerdictEquivalent {
		t.Fatalf("verdict = %q, want %q (body %s)", res.Verdict, VerdictEquivalent, data)
	}
	if res.NumSims == 0 {
		t.Errorf("NumSims = 0, want > 0")
	}
	// On 2 qubits DefaultR exceeds 2^n, so the simulations are exhaustive and
	// already prove equivalence without the complete routine.
	if !res.Exhaustive {
		t.Errorf("Exhaustive = false, want exhaustive coverage on 2 qubits")
	}
	if res.DD == nil || res.DD.ApplyCalls == 0 {
		t.Errorf("DD stats missing or empty: %+v", res.DD)
	}
	if res.Timings.TotalMS <= 0 {
		t.Errorf("Timings.TotalMS = %v, want > 0", res.Timings.TotalMS)
	}
}

func TestCheckNotEquivalentPair(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellFlippedQASM))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Verdict != VerdictNotEquivalent {
		t.Fatalf("verdict = %q, want %q (body %s)", res.Verdict, VerdictNotEquivalent, data)
	}
	if res.Counterexample == nil {
		t.Fatalf("counterexample missing from a not_equivalent verdict")
	}
	if res.Counterexample.Fidelity >= 1 {
		t.Errorf("counterexample fidelity = %v, want < 1", res.Counterexample.Fidelity)
	}
}

// TestCheckFinishedBySimulation sends a routed reversible netlist, whose 16
// basis columns cost less than the complete check's miter: the probe yields,
// the flow simulates every column, and the response reports a simulation
// verdict with the probe's time but no ec_verdict.
func TestCheckFinishedBySimulation(t *testing.T) {
	src, err := bench.RandomReversible(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := decompose.Circuit(src, decompose.LevelCX)
	m, err := mapping.Map(g, mapping.Options{Arch: mapping.Linear(g.N), RestoreLayout: true, DecomposeSwaps: true})
	if err != nil {
		t.Fatal(err)
	}
	gq, err := qasm.WriteString(g)
	if err != nil {
		t.Fatal(err)
	}
	gpq, err := qasm.WriteString(m.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(gq, gpq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Verdict != VerdictEquivalent || res.DecidedBy != "sim" || !res.Exhaustive || res.NumSims != 16 {
		t.Fatalf("response %s: want equivalent, decided by sim, exhaustive after 16 sims", data)
	}
	if res.ECVerdict != "" || strings.Contains(string(data), "ec_verdict") {
		t.Errorf("ec_verdict = %q for a yielded probe, want it omitted", res.ECVerdict)
	}
	if tm := res.Timings; tm.ECMS <= 0 || tm.SimMS <= 0 || tm.SimMS+tm.ECMS > tm.TotalMS {
		t.Errorf("timings %+v: want the probe in ec_ms and the columns in sim_ms, both inside total_ms", tm)
	}
	_, body := getJSON(t, ts.URL+"/metrics")
	if want := `qcecd_wins_total{prover="sim"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// validationCase is a row of TestRequestValidation: a body and the typed
// error it must come back with.
type validationCase struct {
	name       string
	body       string
	wantStatus int
	wantCode   string
}

// endpointCases are the rows posted to one endpoint path.
type endpointCases struct {
	path  string
	cases []validationCase
}

// validationCases returns TestRequestValidation's rows.  A body is one JSON
// value within MaxBodyBytes (2048 there): a body past the limit is a 413
// even when its value ends before it, and any byte but whitespace after the
// value is a 400.
func validationCases() []endpointCases {
	batch := `{"items":[` + checkBody(bellQASM, bellQASM) + `]}`
	return []endpointCases{
		{"/v1/check", []validationCase{
			{"not json", "hello", http.StatusBadRequest, CodeBadRequest},
			{"missing gp", `{"g": "OPENQASM 2.0;\nqreg q[1];\n"}`, http.StatusBadRequest, CodeBadRequest},
			{"malformed qasm", checkBody("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n", bellQASM), http.StatusBadRequest, CodeBadQASM},
			{"bad strategy", `{"g":` + quote(bellQASM) + `,"gp":` + quote(bellQASM) + `,"options":{"strategy":"magic"}}`, http.StatusBadRequest, CodeBadRequest},
			{"retired stabilizer strategy", `{"g":` + quote(bellQASM) + `,"gp":` + quote(bellQASM) + `,"options":{"strategy":"stabilizer"}}`, http.StatusBadRequest, CodeBadRequest},
			{"oversized body", checkBody(bellQASM+strings.Repeat("// padding\n", 400), bellQASM), http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
			{"too many qubits", checkBody(ghzQASM(5), ghzQASM(5)), http.StatusRequestEntityTooLarge, CodeCircuitTooLarge},
			{"too many gates", checkBody(bellQASM+"x q[0];\nx q[0];\n", bellQASM), http.StatusRequestEntityTooLarge, CodeCircuitTooLarge},
			{"padding past the limit", checkBody(bellQASM, bellQASM) + strings.Repeat(" ", 5000), http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
			{"bytes after the value", checkBody(bellQASM, bellQASM) + "garbage", http.StatusBadRequest, CodeBadRequest},
			{"two values", checkBody(bellQASM, bellQASM) + checkBody(bellQASM, bellQASM), http.StatusBadRequest, CodeBadRequest},
		}},
		{"/v1/jobs", []validationCase{
			{"jobs bytes after the value", checkBody(bellQASM, bellQASM) + "garbage", http.StatusBadRequest, CodeBadRequest},
		}},
		{"/v1/batch", []validationCase{
			{"batch padding past the limit", batch + strings.Repeat(" ", 5000), http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
			{"batch bytes after the value", batch + "garbage", http.StatusBadRequest, CodeBadRequest},
		}},
	}
}

// TestRequestValidation is the 4xx table: every malformed request must come
// back as a typed JSON error with the documented code, and must never reach
// the queue.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      1,
		MaxBodyBytes: 2048,
		MaxQubits:    4,
		MaxGates:     3,
	})
	for _, endpoint := range validationCases() {
		for _, tc := range endpoint.cases {
			t.Run(tc.name, func(t *testing.T) {
				resp, data := postJSON(t, ts.URL+endpoint.path, tc.body)
				if resp.StatusCode != tc.wantStatus {
					t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.wantStatus, data)
				}
				var eb ErrorBody
				if err := json.Unmarshal(data, &eb); err != nil {
					t.Fatalf("error body is not the typed shape: %v (%s)", err, data)
				}
				if eb.Error.Code != tc.wantCode {
					t.Errorf("code = %q, want %q (message %q)", eb.Error.Code, tc.wantCode, eb.Error.Message)
				}
				if eb.Error.Message == "" {
					t.Errorf("empty error message")
				}
			})
		}
	}
}

// TestDeclaredLengthOverLimitIsNotRead: a Content-Length above MaxBodyBytes
// is a 413 on every POST endpoint before the handler reads a byte.
func TestDeclaredLengthOverLimitIsNotRead(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 2048})
	for _, path := range []string{"/v1/check", "/v1/jobs", "/v1/batch"} {
		body := &countingReader{r: strings.NewReader(checkBody(bellQASM, bellQASM))}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = 2049
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusRequestEntityTooLarge || eb.Error.Code != CodeBodyTooLarge {
			t.Errorf("%s: status %d, body %s; want 413 %s", path, rec.Code, rec.Body, CodeBodyTooLarge)
		}
		if body.reads != 0 {
			t.Errorf("%s: the handler read the body %d times before refusing it", path, body.reads)
		}
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestDeclaredLengthIsNotPreallocated: a request that declares a body of
// MaxBodyBytes and has sent nothing holds at most maxPrealloc of buffer on
// every POST endpoint, so idle connections cannot pin the limit each.
func TestDeclaredLengthIsNotPreallocated(t *testing.T) {
	const limit = 32 << 20
	s, _ := newTestServer(t, Config{Workers: 1, MaxBodyBytes: limit})
	for _, path := range []string{"/v1/check", "/v1/jobs", "/v1/batch"} {
		var before, atRead runtime.MemStats
		read := false
		body := readerFunc(func([]byte) (int, error) {
			if !read {
				read = true
				runtime.ReadMemStats(&atRead)
			}
			return 0, io.EOF
		})
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = limit
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		if !read {
			t.Fatalf("%s: the handler never read the body", path)
		}
		if got := atRead.TotalAlloc - before.TotalAlloc; got > 4*maxPrealloc {
			t.Errorf("%s: %d bytes allocated before the first body byte arrived (declared %d)", path, got, limit)
		}
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestChunkedBodyOverLimit: a body sent without a Content-Length (chunked)
// is bounded as it is read: on every POST endpoint it is served within
// MaxBodyBytes and is a 413 once it runs past the limit, even when its
// JSON value ends before it.
func TestChunkedBodyOverLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 2048})
	for _, tc := range []struct{ path, body string }{
		{"/v1/check", checkBody(bellQASM, bellQASM)},
		{"/v1/jobs", checkBody(bellQASM, bellQASM)},
		{"/v1/batch", `{"items":[` + checkBody(bellQASM, bellQASM) + `]}`},
	} {
		for _, padding := range []int{0, 5000} {
			// io.MultiReader hides the length, so the client sends the
			// body chunked and the request's ContentLength is -1.
			body := io.MultiReader(strings.NewReader(tc.body + strings.Repeat(" ", padding)))
			resp, err := http.Post(ts.URL+tc.path, "application/json", body)
			if err != nil {
				t.Fatalf("POST %s: %v", tc.path, err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("read body: %v", err)
			}
			if padding == 0 {
				if resp.StatusCode >= 300 {
					t.Errorf("%s, chunked within the limit: status %d, body %s", tc.path, resp.StatusCode, data)
				}
				continue
			}
			var eb ErrorBody
			if err := json.Unmarshal(data, &eb); err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Code != CodeBodyTooLarge {
				t.Errorf("%s, chunked past the limit: status %d, body %s; want 413 %s", tc.path, resp.StatusCode, data, CodeBodyTooLarge)
			}
		}
	}
}

// TestQueueFullRejects fills the pool (1 worker blocked, 1 queue slot) and
// asserts the next request is shed with 429 + Retry-After, then drains
// cleanly once the blockage lifts.
func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	started := make(chan struct{}, 4)
	block := make(chan struct{})
	s.exec = func(j *job) core.Report {
		started <- struct{}{}
		<-block
		return core.Report{}
	}
	defer close(block)

	// First job: admitted and picked up by the only worker.
	resp, data := postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status = %d, want 202; body %s", resp.StatusCode, data)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up job 1")
	}
	// Second job: fills the single queue slot.
	resp, data = postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status = %d, want 202; body %s", resp.StatusCode, data)
	}
	// Third job: no room — must be shed, not queued.
	resp, data = postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429; body %s", resp.StatusCode, data)
	}
	// The hint is jittered ±25% around the configured 2s and rounded up to
	// whole seconds, so any value in [2, 3] is in-contract.
	if ra := resp.Header.Get("Retry-After"); ra != "2" && ra != "3" {
		t.Errorf("Retry-After = %q, want 2 or 3 (2s base with ±25%% jitter)", ra)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != CodeQueueFull {
		t.Errorf("rejection body = %s, want code %q", data, CodeQueueFull)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellFlippedQASM))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202; body %s", resp.StatusCode, data)
	}
	var jr JobResponse
	if err := json.Unmarshal(data, &jr); err != nil || jr.JobID == "" {
		t.Fatalf("bad 202 body %s (err %v)", data, err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, body := getJSON(t, ts.URL+"/v1/jobs/"+jr.JobID)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d; body %s", r.StatusCode, body)
		}
		var cur JobResponse
		if err := json.Unmarshal(body, &cur); err != nil {
			t.Fatalf("poll unmarshal: %v", err)
		}
		if cur.Status == StatusDone {
			if cur.Result == nil || cur.Result.Verdict != VerdictNotEquivalent {
				t.Fatalf("done result = %+v, want not_equivalent", cur.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 10s", cur.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unknown ids are a typed 404.
	r, body := getJSON(t, ts.URL+"/v1/jobs/nope")
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", r.StatusCode)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeNotFound {
		t.Errorf("404 body = %s, want code %q", body, CodeNotFound)
	}
}

// TestCompletedJobEviction bounds the async-result retention.
func TestCompletedJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CompletedJobs: 2})
	s.exec = func(j *job) core.Report { return core.Report{} }
	var ids []string
	for i := 0; i < 4; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", checkBody(bellQASM, bellQASM))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d status = %d; body %s", i, resp.StatusCode, data)
		}
		var jr JobResponse
		if err := json.Unmarshal(data, &jr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jr.JobID)
	}
	waitDone(t, ts, ids[len(ids)-1])
	// Handler table for the three lookup outcomes: evicted ids answer a
	// typed 410 (the id was real, the result aged out), retained ids answer
	// 200, and ids never issued answer 404.
	cases := []struct {
		id         string
		wantStatus int
		wantCode   string
	}{
		{ids[0], http.StatusGone, CodeJobEvicted},
		{ids[1], http.StatusGone, CodeJobEvicted},
		{ids[2], http.StatusOK, ""},
		{ids[3], http.StatusOK, ""},
		{"j99999999", http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		r, body := getJSON(t, ts.URL+"/v1/jobs/"+tc.id)
		if r.StatusCode != tc.wantStatus {
			t.Errorf("job %s: status %d, want %d (body %s)", tc.id, r.StatusCode, tc.wantStatus, body)
			continue
		}
		if tc.wantCode == "" {
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != tc.wantCode {
			t.Errorf("job %s: body = %s, want code %q", tc.id, body, tc.wantCode)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	r, body := getJSON(t, ts.URL+"/healthz")
	if r.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q, want 200 ok", r.StatusCode, body)
	}

	if resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM)); resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d; body %s", resp.StatusCode, data)
	}
	r, body = getJSON(t, ts.URL+"/metrics")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", r.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`qcecd_checks_total{verdict="equivalent"} 1`,
		"qcecd_jobs_submitted_total 1",
		"qcecd_jobs_completed_total 1",
		"qcecd_queue_capacity",
		"qcecd_workers 1",
		"qcecd_check_duration_seconds_count 1",
		"qcecd_dd_apply_calls_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Draining flips healthz to 503 and the gauge to 1.
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r, _ = getJSON(t, ts.URL+"/healthz")
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", r.StatusCode)
	}
	_, body = getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "qcecd_draining 1") {
		t.Errorf("metrics missing qcecd_draining 1 after Shutdown")
	}
	// New work is refused with the draining code.
	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("check while draining = %d, want 503; body %s", resp.StatusCode, data)
	}
}

// TestRequestTimeoutCancelsJob bounds a slow check by the request's own
// timeout_ms and reports the cancellation rather than hanging.
func TestRequestTimeoutCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.exec = func(j *job) core.Report {
		// Respect the per-job deadline like the real flow does.
		o := j.req.Options
		timeout := time.Duration(o.TimeoutMS) * time.Millisecond
		select {
		case <-j.ctx.Done():
		case <-time.After(timeout):
		}
		return core.Report{Verdict: core.ProbablyEquivalent, Cancelled: true}
	}
	body := `{"g":` + quote(bellQASM) + `,"gp":` + quote(bellQASM) + `,"options":{"timeout_ms":50}}`
	resp, data := postJSON(t, ts.URL+"/v1/check", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Verdict != VerdictProbablyEquivalent {
		t.Errorf("result = %+v, want cancelled probably_equivalent", res)
	}
}

// --- helpers ---

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func waitDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
		var jr JobResponse
		if json.Unmarshal(body, &jr) == nil && jr.Status == StatusDone {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func ghzQASM(n int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\nh q[0];\n", n)
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", i, i+1)
	}
	return b.String()
}
