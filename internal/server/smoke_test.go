package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestServeSmoke is the end-to-end service check used by `make serve-smoke`:
// build the real qcecd binary, run it on a random port, drive it over real
// HTTP with seed circuits, scrape /metrics, then SIGTERM it and require a
// clean exit.  Gated behind QCECD_SMOKE=1 because it compiles a binary.
func TestServeSmoke(t *testing.T) {
	if os.Getenv("QCECD_SMOKE") == "" {
		t.Skip("set QCECD_SMOKE=1 to run the daemon smoke test")
	}

	tmp := t.TempDir()
	bin := buildQcecd(t, tmp)

	ghz5, err := os.ReadFile("../../circuits/ghz5.qasm")
	if err != nil {
		t.Fatalf("read seed circuit: %v", err)
	}
	equivalentPair := checkBody(string(ghz5), string(ghz5))
	differingPair := checkBody(string(ghz5), string(ghz5)+"x q[0];\n")

	addrFile := filepath.Join(tmp, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-workers", "2",
		"-drain-timeout", "20s",
	)
	var output syncBuffer
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatalf("start qcecd: %v", err)
	}
	// exited is closed after the wait result is delivered, so every receive
	// after the first returns immediately (the cleanup below must not hang
	// when the test body already consumed the result).
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait(); close(exited) }()
	defer func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
	}()

	// The daemon binds before announcing, so the address file appearing
	// means connects will succeed.
	var base string
	for deadline := time.Now().Add(15 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("qcecd exited before serving: %v\n%s", err, output.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("address file never appeared\n%s", output.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	post := func(body string) CheckResponse {
		t.Helper()
		resp, err := http.Post(base+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/check: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check status = %d; body %s", resp.StatusCode, data)
		}
		var res CheckResponse
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		return res
	}

	scrape := func() string {
		t.Helper()
		mr, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		defer mr.Body.Close()
		mtext, _ := io.ReadAll(mr.Body)
		return string(mtext)
	}

	if res := post(equivalentPair); res.Verdict != VerdictEquivalent {
		t.Fatalf("ghz5 vs ghz5 verdict = %q, want equivalent", res.Verdict)
	} else if res.DecidedBy != "stab" {
		// 2^5 basis states > DefaultR stimuli: the complete routine must
		// have produced the proof, and a Clifford pair's is the tableau.
		t.Errorf("equivalent verdict not decided by the tableau: %+v", res)
	} else if res.Cached {
		t.Errorf("first check of the pair claims cached")
	}
	if want := `qcecd_wins_total{prover="stab"} 1`; !strings.Contains(scrape(), want) {
		t.Errorf("metrics missing %q after the tableau's proof", want)
	}
	if res := post(differingPair); res.Verdict != VerdictNotEquivalent {
		t.Fatalf("ghz5 vs ghz5+X verdict = %q, want not_equivalent", res.Verdict)
	} else if res.Counterexample == nil {
		t.Errorf("not_equivalent without a counterexample")
	}

	// A second, identical check must be answered from the verdict cache: the
	// response says so, the hit counter moves, and the DD engine does no new
	// work (the apply-call counter only advances when a job executes).
	before := scrape()
	if res := post(equivalentPair); !res.Cached {
		t.Errorf("identical repeat not served from cache: %+v", res)
	} else if res.Verdict != VerdictEquivalent {
		t.Errorf("cached verdict = %q", res.Verdict)
	} else if res.DD != nil {
		t.Errorf("cached response carries DD telemetry: %+v", res.DD)
	}
	after := scrape()
	if b, a := metricValue(t, before, "qcecd_dd_apply_calls_total"), metricValue(t, after, "qcecd_dd_apply_calls_total"); a != b {
		t.Errorf("cached repeat did DD work: apply calls %s -> %s", b, a)
	}
	if b, a := metricValue(t, before, "qcecd_cache_hits_total"), metricValue(t, after, "qcecd_cache_hits_total"); b != "0" || a != "1" {
		t.Errorf("cache hits %s -> %s, want 0 -> 1", b, a)
	}

	// A concurrent burst of distinct pairs (distinct fingerprints, so every
	// one really executes): all succeed, none crash the daemon.
	var wg sync.WaitGroup
	verdicts := make(chan string, 8)
	for i := 0; i < 8; i++ {
		variant := string(ghz5) + fmt.Sprintf("rz(0.%d) q[0];\n", i+1)
		body := checkBody(variant, variant)
		want := VerdictEquivalent
		if i%2 == 1 {
			body = checkBody(variant, variant+"x q[0];\n")
			want = VerdictNotEquivalent
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := post(body); res.Verdict == want {
				verdicts <- res.Verdict
			} else {
				verdicts <- fmt.Sprintf("%s (want %s)", res.Verdict, want)
			}
		}()
	}
	wg.Wait()
	close(verdicts)
	for v := range verdicts {
		if v != VerdictEquivalent && v != VerdictNotEquivalent {
			t.Errorf("burst verdict = %q", v)
		}
	}

	// Health and metrics reflect the traffic.
	hr, err := http.Get(base + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (status %v)", err, hr)
	}
	hr.Body.Close()
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mtext, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		`qcecd_checks_total{verdict="equivalent"} 5`,
		`qcecd_checks_total{verdict="not_equivalent"} 5`,
		"qcecd_jobs_completed_total 10",
		"qcecd_dd_apply_calls_total",
		"qcecd_check_duration_seconds_count 10",
	} {
		if !strings.Contains(string(mtext), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A 100-pair batch over 10 unique questions: per-item verdicts, in-batch
	// deduplication, and agreement with the single-check endpoint.
	circ := func(q int) string {
		return fmt.Sprintf("OPENQASM 2.0;\nqreg q[1];\nrz(0.9%02d) q[0];\n", q)
	}
	wantVerdict := func(q int) string {
		if q < 5 {
			return VerdictEquivalent
		}
		return VerdictNotEquivalent
	}
	var batch BatchRequest
	for i := 0; i < 100; i++ {
		q := i % 10
		item := CheckRequest{G: circ(q), Gp: circ(q)}
		if q >= 5 {
			item.Gp = circ(q) + "x q[0];\n"
		}
		batch.Items = append(batch.Items, item)
	}
	batchBody, _ := json.Marshal(batch)
	bresp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	bdata, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d; body %s", bresp.StatusCode, bdata)
	}
	var br BatchResponse
	if err := json.Unmarshal(bdata, &br); err != nil {
		t.Fatalf("unmarshal batch response: %v", err)
	}
	if len(br.Items) != 100 {
		t.Fatalf("batch items = %d, want 100", len(br.Items))
	}
	if br.Checked != 10 || br.Deduplicated != 90 || br.Failed != 0 {
		t.Errorf("batch counts = checked %d dedup %d failed %d, want 10/90/0",
			br.Checked, br.Deduplicated, br.Failed)
	}
	for i, item := range br.Items {
		q := i % 10
		if item.Result == nil {
			t.Fatalf("batch item %d has no result: %+v", i, item.Error)
		}
		if item.Result.Verdict != wantVerdict(q) {
			t.Errorf("batch item %d verdict = %q, want %q", i, item.Result.Verdict, wantVerdict(q))
		}
		if i >= 10 && !item.Result.Cached {
			t.Errorf("batch item %d (duplicate of %d) not deduplicated", i, q)
		}
	}
	// The single-check endpoint agrees with every batch verdict.
	for q := 0; q < 10; q++ {
		gp := circ(q)
		if q >= 5 {
			gp += "x q[0];\n"
		}
		if res := post(checkBody(circ(q), gp)); res.Verdict != br.Items[q].Result.Verdict {
			t.Errorf("question %d: individual %q vs batch %q", q, res.Verdict, br.Items[q].Result.Verdict)
		}
	}
	final := scrape()
	if v := metricValue(t, final, "qcecd_batches_total"); v != "1" {
		t.Errorf("qcecd_batches_total = %s, want 1", v)
	}
	if v := metricValue(t, final, "qcecd_batch_items_total"); v != "100" {
		t.Errorf("qcecd_batch_items_total = %s, want 100", v)
	}
	if v := metricValue(t, final, "qcecd_batch_dedup_total"); v != "90" {
		t.Errorf("qcecd_batch_dedup_total = %s, want 90", v)
	}
	if v := metricValue(t, final, "qcecd_dd_pool_reuses_total"); v == "0" {
		t.Errorf("warm DD-package pool never reused a package")
	}

	// SIGTERM: graceful drain, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("qcecd exit = %v, want 0\n%s", err, output.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("qcecd did not exit after SIGTERM\n%s", output.String())
	}
	if !strings.Contains(output.String(), "drained") {
		t.Errorf("daemon output missing the drain confirmation:\n%s", output.String())
	}
	t.Logf("daemon output:\n%s", output.String())
}

// buildQcecd compiles the real daemon binary into dir.
func buildQcecd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "qcecd")
	build := exec.Command("go", "build", "-o", bin, "qcec/cmd/qcecd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build qcecd: %v\n%s", err, out)
	}
	return bin
}

// smokeDaemon is one running qcecd subprocess under test control.
type smokeDaemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	out    *syncBuffer
	exited chan error
}

// startQcecd launches bin with args plus the addr plumbing and waits until
// it serves.  The cleanup kills the process if the test never reaped it.
func startQcecd(t *testing.T, bin string, args ...string) *smokeDaemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.Command(bin, full...)
	out := &syncBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start qcecd: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
	})
	var base string
	for deadline := time.Now().Add(15 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("qcecd exited before serving: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("address file never appeared\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return &smokeDaemon{cmd: cmd, base: base, out: out, exited: exited}
}

// TestServeCrashRestart is the durability half of `make serve-smoke`: submit
// a set of async jobs with idempotency keys, SIGKILL the daemon mid-flight,
// restart it over the same -journal-dir, and require that every accepted job
// reaches the terminal verdict an uninterrupted run would produce — plus
// that a keyed resubmit attaches to the recovered job instead of new work.
func TestServeCrashRestart(t *testing.T) {
	if os.Getenv("QCECD_SMOKE") == "" {
		t.Skip("set QCECD_SMOKE=1 to run the daemon smoke test")
	}

	tmp := t.TempDir()
	bin := buildQcecd(t, tmp)
	jdir := filepath.Join(tmp, "journal")

	ghz5, err := os.ReadFile("../../circuits/ghz5.qasm")
	if err != nil {
		t.Fatalf("read seed circuit: %v", err)
	}

	// Eight questions with analytically known verdicts — the uninterrupted
	// baseline.  Distinct rz angles give distinct fingerprints so nothing is
	// answered from the verdict cache.
	type qa struct {
		body, key, want string
		id              string
	}
	var questions []qa
	for i := 0; i < 8; i++ {
		variant := string(ghz5) + fmt.Sprintf("rz(0.%d1) q[0];\n", i+1)
		q := qa{body: checkBody(variant, variant), key: fmt.Sprintf("crash-%d", i), want: VerdictEquivalent}
		if i%2 == 1 {
			q.body = checkBody(variant, variant+"x q[0];\n")
			q.want = VerdictNotEquivalent
		}
		questions = append(questions, q)
	}

	// One worker so the SIGKILL below usually lands with jobs still queued or
	// mid-run; the restart must cope with any mix of finished and unfinished.
	d1 := startQcecd(t, bin, "-journal-dir", jdir, "-workers", "1")
	submit := func(base string, q qa) (JobResponse, int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(q.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdempotencyKeyHeader, q.key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var jr JobResponse
		if resp.StatusCode == http.StatusAccepted {
			if err := json.Unmarshal(data, &jr); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
		} else {
			t.Fatalf("submit status = %d; body %s", resp.StatusCode, data)
		}
		return jr, resp.StatusCode
	}
	for i := range questions {
		jr, _ := submit(d1.base, questions[i])
		questions[i].id = jr.JobID
	}

	// SIGKILL immediately: with two workers on eight jobs, some are running
	// and some are still queued — no drain, no goodbye, no synced tail.
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	<-d1.exited

	// Restart over the same journal.  Every accepted job must reach its
	// terminal verdict — recovered from the journal or re-run — with the
	// verdict the uninterrupted baseline dictates.
	d2 := startQcecd(t, bin, "-journal-dir", jdir, "-workers", "2")
	poll := func(id string) JobResponse {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(d2.base + "/v1/jobs/" + id)
			if err != nil {
				t.Fatalf("GET job %s: %v", id, err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("job %s lost across restart: status %d body %s", id, resp.StatusCode, data)
			}
			var jr JobResponse
			if err := json.Unmarshal(data, &jr); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if jr.Status == StatusDone {
				return jr
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("job %s never finished after restart", id)
		return JobResponse{}
	}
	for _, q := range questions {
		jr := poll(q.id)
		if jr.Result == nil || jr.Result.Verdict != q.want {
			t.Errorf("job %s (%s): result %+v, want verdict %s", q.id, q.key, jr.Result, q.want)
		}
	}

	// Idempotent resubmit across the crash: same key + same question lands
	// on the recovered job id, not fresh work.
	re, _ := submit(d2.base, questions[0])
	if re.JobID != questions[0].id {
		t.Errorf("keyed resubmit id = %s, want recovered %s", re.JobID, questions[0].id)
	}

	// The recovery counters are visible on the wire.
	mr, err := http.Get(d2.base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mtext, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mtext), "qcecd_journal_replayed_records") {
		t.Errorf("metrics missing the journal replay counters")
	}

	// The restarted daemon still drains cleanly.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-d2.exited:
		if err != nil {
			t.Fatalf("qcecd exit = %v, want 0\n%s", err, d2.out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("qcecd did not exit after SIGTERM\n%s", d2.out.String())
	}
	t.Logf("restarted daemon output:\n%s", d2.out.String())
}

// metricValue extracts a metric's rendered value from Prometheus text
// exposition, failing the test when the metric is absent.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("metric %q not found in:\n%s", name, text)
	return ""
}

// syncBuffer collects the daemon's output; the exec copy goroutine writes it
// while failure paths read it, so access is locked.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
