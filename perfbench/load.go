package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qcec/internal/server"
)

// client sends check requests to one daemon over keep-alive connections.
type client struct {
	http    *http.Client
	url     string
	journal bool // send an Idempotency-Key with every new question
}

func newClient(d *daemon, conns int, journal bool) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: d.url + "/v1/check", journal: journal}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// A sample is the client-side record of one request.
type sample struct {
	body    int
	start   time.Time
	latency time.Duration // send to parsed response
	resp    server.CheckResponse
	err     error // transport failure, non-2xx, error verdict or wrong verdict
}

// check sends one body and waits for its parsed response; key is the
// Idempotency-Key when the client journals and b is a new question.  Repeats
// go without a key: a keyed cache hit appends its whole request to the
// journal and waits on the fsync loop, so hits would time the disk rather
// than the server.
func (c *client) check(ctx context.Context, b body, key string) sample {
	s := sample{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(b.data))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if c.journal && b.fresh {
		req.Header.Set(server.IdempotencyKeyHeader, key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, data)
	}
	if err == nil {
		err = json.Unmarshal(data, &s.resp)
	}
	s.latency = time.Since(s.start)
	switch {
	case err != nil:
		s.err = err
	case s.resp.Verdict == server.VerdictError || s.resp.Cancelled:
		s.err = fmt.Errorf("check failed: verdict %s, cancelled %v: %s", s.resp.Verdict, s.resp.Cancelled, s.resp.Error)
	case s.resp.Verdict != b.truth:
		s.err = fmt.Errorf("wrong verdict %s, want %s", s.resp.Verdict, b.truth)
	}
	return s
}

// closedLoop sends the bodies named by seq in order from conns concurrent
// callers, each waiting for its verdict before sending the next, until seq
// is exhausted or the deadline passes.  after, when non-nil, runs on the
// caller's goroutine after each response and before its next request; with
// more than one caller it must be safe for concurrent use.  It
// returns the samples of every request sent, in sequence order.
func (c *client) closedLoop(ctx context.Context, w *workload, seq []int, keyPrefix string, conns int, deadline time.Time, after func(pos int, s *sample)) []sample {
	out := make([]sample, len(seq))
	var next atomic.Int64
	var sent atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				pos := int(next.Add(1) - 1)
				if pos >= len(seq) {
					return
				}
				s := c.check(ctx, w.bodies[seq[pos]], fmt.Sprintf("%s-%d", keyPrefix, pos))
				s.body = seq[pos]
				if after != nil {
					after(pos, &s)
				}
				out[pos] = s
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	// Positions are claimed in order, so the sent ones are a prefix.
	return out[:sent.Load()]
}

// warmUp answers the workload's warm-up questions and fails on any wrong or
// missing verdict.
func (c *client) warmUp(ctx context.Context, w *workload) error {
	for _, s := range c.closedLoop(ctx, w, w.warmup, "warm", 2, time.Now().Add(time.Hour), nil) {
		if s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}
