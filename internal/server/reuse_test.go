package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qcec/internal/qasm"
)

// TestReleasedParsesAreNotRead mixes every way a job ends (concurrent
// cache hits and misses, a batch with duplicates and a bad item, keyed
// requests that attach to their key's holder, asynchronous jobs and clients
// that disconnect mid-check) while every parse storage given back for reuse
// is poisoned at once.  A job whose circuits were still read after their
// storage went back would panic (verdict "error"), answer wrongly, or,
// under -race, be reported as a data race.
func TestReleasedParsesAreNotRead(t *testing.T) {
	var poisoned atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 256,
		testReleaseParse: func(st *qasm.Storage) {
			if poison(st) {
				poisoned.Add(1)
			}
		},
	})

	const clients, rounds = 6, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	requests := atomic.Int64{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < rounds; r++ {
				requests.Add(1)
				if err := reuseRound(ts.URL, rng, fmt.Sprintf("c%d-r%d", c, r)); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Most rounds end at least one job through finish.
	if n := poisoned.Load(); n < requests.Load() {
		t.Errorf("%d parse storages were given back over %d rounds", n, requests.Load())
	}
}

// poison overwrites what a released parse storage holds, in place: every
// gate slot becomes a doubly-controlled X on wires past the widest circuit
// qcecd admits, and the Params and Controls entries its gates can hold
// are written too.  It reports false for a storage too small to poison
// without growing it, which held at most four gates.
func poison(st *qasm.Storage) bool {
	k := st.Cap()
	if k < 5 { // the number of statements below
		return false
	}
	regs := fmt.Sprintf("qreg pad[64]; qreg a[%d]; qreg b[%d]; qreg c[%d];\n", k, k, k)
	for _, gates := range []string{"u3(9,9,9) c;", "ccx a, b, c;"} {
		if _, err := qasm.ParseInto(st, regs+gates, 0, 0); err != nil {
			panic(err)
		}
	}
	if st.Cap() != k {
		panic("poisoning grew the storage")
	}
	return true
}

// reuseQuestion is one of 12 questions: a GHZ circuit on 3 to 8 qubits,
// Clifford or with a T gate, against itself or with an X appended.  Each
// call spells it differently (a comment), so a repeat is a cache hit.
func reuseQuestion(rng *rand.Rand) (req CheckRequest, verdict string) {
	i := rng.Intn(12)
	g := ghzQASM(3 + i%6)
	if i%2 == 1 {
		g += "t q[0];\n"
	}
	variant := fmt.Sprintf("// variant %d\n", rng.Int())
	req = CheckRequest{G: g + variant, Gp: variant + g}
	verdict = VerdictEquivalent
	if i >= 6 {
		req.Gp += "x q[1];\n"
		verdict = VerdictNotEquivalent
	}
	return req, verdict
}

// reuseRound sends one randomly chosen kind of request and checks every
// verdict it gets back.
func reuseRound(url string, rng *rand.Rand, key string) error {
	req, verdict := reuseQuestion(rng)
	switch rng.Intn(5) {
	case 0: // a keyless check: a hit or a miss
		var res CheckResponse
		if err := reusePost(context.Background(), url+"/v1/check", "", req, http.StatusOK, &res); err != nil {
			return err
		}
		return wantVerdict(&res, verdict)
	case 1: // two keyed requests at once: one attaches to the other's job
		errs := make(chan error, 2)
		for range 2 {
			go func() {
				var res CheckResponse
				err := reusePost(context.Background(), url+"/v1/check", key, req, http.StatusOK, &res)
				if err == nil {
					err = wantVerdict(&res, verdict)
				}
				errs <- err
			}()
		}
		return errors.Join(<-errs, <-errs)
	case 2: // a batch with a duplicate and a bad item
		other, otherVerdict := reuseQuestion(rng)
		dup := req
		dup.G += "// duplicate\n"
		items := []CheckRequest{req, other, dup, {G: "qreg q[1]; frob q[0];", Gp: bellQASM}}
		var br BatchResponse
		if err := reusePost(context.Background(), url+"/v1/batch", "", BatchRequest{Items: items}, http.StatusOK, &br); err != nil {
			return err
		}
		if len(br.Items) != 4 || br.Items[3].Error == nil {
			return fmt.Errorf("batch answered %+v", br)
		}
		for i, want := range []string{verdict, otherVerdict, verdict} {
			if err := wantVerdict(br.Items[i].Result, want); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	case 3: // an asynchronous job, polled until done
		var jr JobResponse
		if err := reusePost(context.Background(), url+"/v1/jobs", key, req, http.StatusAccepted, &jr); err != nil {
			return err
		}
		for deadline := time.Now().Add(10 * time.Second); jr.Status != StatusDone; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s never finished", jr.JobID)
			}
			resp, err := http.Get(url + "/v1/jobs/" + jr.JobID)
			if err != nil {
				return err
			}
			err = json.NewDecoder(resp.Body).Decode(&jr)
			resp.Body.Close()
			if err != nil {
				return err
			}
		}
		return wantVerdict(jr.Result, verdict)
	default: // a client that disconnects within 3 ms
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(3000))*time.Microsecond)
		defer cancel()
		var res CheckResponse
		if err := reusePost(ctx, url+"/v1/check", "", req, http.StatusOK, &res); err != nil {
			return nil // gone before the answer
		}
		return wantVerdict(&res, verdict)
	}
}

// reusePost posts v as JSON, with an Idempotency-Key unless key is "",
// and decodes a response of the wanted status into out.
func reusePost(ctx context.Context, url, key string, v any, status int, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s: status %d, want %d: %s", url, resp.StatusCode, status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

func wantVerdict(res *CheckResponse, verdict string) error {
	if res == nil || res.Verdict != verdict {
		return fmt.Errorf("answered %+v, want verdict %q", res, verdict)
	}
	return nil
}
