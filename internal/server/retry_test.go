package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/resource"
)

// TestClassifyOutcome pins the retry classifier's partition: transient
// failures (panics, memory trips) are worth a degraded re-run, deterministic
// failures and client-budget cancellations are not.
func TestClassifyOutcome(t *testing.T) {
	memErr := &resource.MemoryLimitError{HeapBytes: 1 << 30, LimitBytes: 1 << 29}
	panErr := resource.NewPanicError("test", "boom")
	cases := []struct {
		name      string
		rep       core.Report
		panicErr  *resource.PanicError
		wantClass errClass
		wantLabel string
	}{
		{"clean verdict", core.Report{}, nil, classNone, ""},
		{"worker panic", core.Report{}, panErr, classTransient, "panic"},
		{"engine panic in err", core.Report{Err: panErr}, nil, classTransient, "panic"},
		{"mem limit as err", core.Report{Err: memErr}, nil, classTransient, "mem_limit"},
		{"mem limit as cancel cause",
			core.Report{Cancelled: true, CancelCause: memErr}, nil, classTransient, "mem_limit"},
		{"client cancellation",
			core.Report{Cancelled: true, CancelCause: context.DeadlineExceeded}, nil, classNone, "cancelled"},
		{"drain cancellation",
			core.Report{Cancelled: true, CancelCause: &DrainError{Waited: time.Second}}, nil, classNone, "drain"},
		{"node-limit exhaustion",
			core.Report{EC: &ec.Result{Cause: ec.CauseNodeLimit}}, nil, classPermanent, "node_limit"},
		{"probe yielded to simulation",
			core.Report{DecidedBy: "sim", EC: &ec.Result{Verdict: ec.TimedOut, Cause: ec.CauseYielded}}, nil, classNone, ""},
		{"other error", core.Report{Err: errors.New("degenerate input")}, nil, classPermanent, "error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			class, label := classifyOutcome(tc.rep, tc.panicErr)
			if class != tc.wantClass || label != tc.wantLabel {
				t.Errorf("classifyOutcome = (%v, %q), want (%v, %q)",
					class, label, tc.wantClass, tc.wantLabel)
			}
		})
	}
}

// TestRetryDelayBounds: the backoff grows exponentially, stays inside the
// full-jitter envelope [base·2^k/2, base·2^k·3/2), and caps at 5s even for
// attempt indices that would overflow the shift.
func TestRetryDelayBounds(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		nominal := base << uint(attempt)
		if nominal > 5*time.Second {
			nominal = 5 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := retryDelay(base, attempt)
			if d < nominal/2 || d >= nominal/2+nominal+time.Millisecond {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, nominal/2, nominal/2+nominal)
			}
		}
	}
	for _, attempt := range []int{40, 63, 100} {
		if d := retryDelay(base, attempt); d < 5*time.Second/2 || d > 5*time.Second*3/2 {
			t.Fatalf("attempt %d: delay %v escaped the cap envelope", attempt, d)
		}
	}
}

// TestRetryAfterSecondsJitter: the hint stays within the ±25% envelope
// (rounded up) and never drops below 1.
func TestRetryAfterSecondsJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		s := retryAfterSeconds(2 * time.Second)
		if s < 2 || s > 3 {
			t.Fatalf("retryAfterSeconds(2s) = %d, want 2..3", s)
		}
		seen[s] = true
	}
	if s := retryAfterSeconds(time.Millisecond); s != 1 {
		t.Fatalf("retryAfterSeconds(1ms) = %d, want 1", s)
	}
	if len(seen) < 2 {
		t.Errorf("no jitter observed across 200 samples: %v", seen)
	}
}

// TestTransientFailureRetriedToSuccess: a job whose first attempt panics is
// re-run and succeeds, reporting both attempts and counting the retry.
func TestTransientFailureRetriedToSuccess(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobRetries: 2, RetryBackoff: time.Millisecond})
	calls := 0
	s.exec = func(j *job) core.Report {
		calls++
		if calls == 1 {
			panic("transient fault")
		}
		return core.Report{Verdict: core.Equivalent}
	}

	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictEquivalent {
		t.Fatalf("verdict = %q, want %q (body %s)", res.Verdict, VerdictEquivalent, data)
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", res.Attempts)
	}
	if calls != 2 {
		t.Errorf("executor ran %d times, want 2", calls)
	}

	_, body := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `qcecd_job_retries_total{class="panic"} 1`) {
		t.Errorf("metrics missing the panic retry count:\n%s", body)
	}
}

// TestTransientFailureExhaustsRetries: a persistently panicking executor is
// re-run exactly MaxJobRetries times, then the failure is returned.
func TestTransientFailureExhaustsRetries(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobRetries: 2, RetryBackoff: time.Millisecond})
	calls := 0
	s.exec = func(j *job) core.Report {
		calls++
		panic("always broken")
	}

	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictError || !strings.Contains(res.Error, "always broken") {
		t.Fatalf("result = %+v, want the final panic surfaced", res)
	}
	if calls != 3 {
		t.Errorf("executor ran %d times, want 3 (1 + 2 retries)", calls)
	}
	if res.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", res.Attempts)
	}
}

// TestPermanentFailureNotRetried: a deterministic error burns no retries.
func TestPermanentFailureNotRetried(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobRetries: 2, RetryBackoff: time.Millisecond})
	calls := 0
	s.exec = func(j *job) core.Report {
		calls++
		return core.Report{Err: errors.New("bad question")}
	}

	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellQASM))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictError {
		t.Fatalf("verdict = %q, want error", res.Verdict)
	}
	if calls != 1 {
		t.Errorf("executor ran %d times, want 1 (permanent errors never retry)", calls)
	}
	if res.Attempts != 0 {
		t.Errorf("Attempts = %d, want omitted for single-attempt jobs", res.Attempts)
	}
}

// TestRetryRunsDegradedOptions: a re-run's options are exactly the first
// attempt's core.Options.Degraded() — the one degraded-retry policy the
// prover race's crash retry applies too.
func TestRetryRunsDegradedOptions(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, MaxParallel: 4})
	j, apiErr := s.buildJob(CheckRequest{G: bellQASM, Gp: bellQASM,
		Options: CheckOptions{Parallel: 4, NodeLimit: 10000, Strategy: "lookahead", R: 3}})
	if apiErr != nil {
		t.Fatalf("buildJob: %+v", apiErr)
	}
	first, cancel := s.jobOptions(j)
	defer cancel()
	if first.Parallel != 4 || first.Pool == nil || first.ECNodeLimit != 10000 {
		t.Fatalf("first attempt options %+v: want 4 workers, the warm pool and the 10000-node budget", first)
	}
	j.attempt = 1
	retry, cancelRetry := s.jobOptions(j)
	defer cancelRetry()
	want := first.Degraded()
	want.Context, retry.Context = nil, nil // fresh per-attempt deadline
	if !reflect.DeepEqual(retry, want) {
		t.Fatalf("retry options %+v, want the first attempt's Degraded() %+v", retry, want)
	}
}

// TestDegradedRetryBudget: the real executor's retry runs the degraded
// configuration (sequential, fresh packages, ec.DegradedNodeLimit).
// Exercised through runCheck by checking a real pair with attempt > 0 — the
// verdict must still be correct under the degraded configuration.
func TestDegradedRetryBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobRetries: 1, RetryBackoff: time.Millisecond})
	first := true
	real := s.exec
	s.exec = func(j *job) core.Report {
		if first {
			first = false
			panic("force a degraded re-run")
		}
		if j.attempt == 0 {
			t.Error("retry ran with attempt = 0; degradation never engages")
		}
		return real(j)
	}

	resp, data := postJSON(t, ts.URL+"/v1/check", checkBody(bellQASM, bellFlippedQASM))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictNotEquivalent {
		t.Fatalf("degraded verdict = %q, want %q (body %s)", res.Verdict, VerdictNotEquivalent, data)
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", res.Attempts)
	}
}
