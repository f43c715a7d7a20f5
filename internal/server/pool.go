package server

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/resource"
)

// This file implements the worker pool: a bounded job queue with admission
// control, per-job deadlines and memory budgets, panic isolation, and a
// graceful drain protocol.
//
// Admission is the load-shedding point.  A job is accepted only if the queue
// channel has room right now (select with default); otherwise the caller
// gets errQueueFull and the handler turns it into 429 + Retry-After.  The
// queue bounds memory (each pending job pins two parsed circuits), the
// worker count bounds CPU, and nothing in the daemon waits unboundedly.
//
// Drain: Shutdown flips the draining flag under the admission lock (so no
// submit can race past it), closes the queue channel, and waits for the
// workers to finish the jobs already admitted.  If the drain context expires
// first, the base context is cancelled with a typed *DrainError cause — every
// running check observes it at its next cooperative cancellation point and
// returns an inconclusive-but-clean verdict, exactly like a client deadline.

// DrainError is the cancellation cause installed when a shutdown's drain
// deadline expires while checks are still running.
type DrainError struct {
	// Waited is how long the drain waited before giving up.
	Waited time.Duration
}

// Error formats the drain timeout.
func (e *DrainError) Error() string {
	return fmt.Sprintf("server: drain deadline exceeded after %s", e.Waited)
}

// errQueueFull is returned by submit when the queue has no room.
var errQueueFull = errors.New("server: job queue full")

// errDraining is returned by submit once Shutdown has begun.
var errDraining = errors.New("server: draining")

// job is one admitted equivalence check.
type job struct {
	id  string
	req CheckRequest
	g1  *circuit.Circuit
	g2  *circuit.Circuit // g1, g2 and req's sources are dropped at retireJob

	enqueued time.Time
	started  time.Time

	// status is one of StatusQueued/StatusRunning/StatusDone, stored as an
	// index into jobStatuses.
	status atomic.Int32

	// ctx governs the job's whole execution; cancel releases it.  The sync
	// handler additionally ties it to the HTTP request context so a client
	// disconnect stops the check.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// done closes when the job has finished and result is set.
	done   chan struct{}
	result *CheckResponse

	// ckey is the job's verdict-cache key (pair fingerprint + the options
	// that parameterize the equivalence relation); cacheOK gates both cache
	// lookup and insertion (false for approximate-mode jobs).
	ckey    cacheKey
	cacheOK bool

	// idemKey is the client-supplied Idempotency-Key ("" = none).
	idemKey string
	// journaled marks jobs under the durability contract: their transitions
	// are appended to the WAL and replayed after a restart.
	journaled bool
	// attempt is the 0-based index of the current execution attempt.  It is
	// non-zero for retried jobs and for journal-recovered jobs that already
	// burned attempts before the crash; any non-zero value degrades the
	// execution budget.
	attempt int
}

var jobStatuses = [...]string{StatusQueued, StatusRunning, StatusDone}

func (j *job) statusString() string { return jobStatuses[j.status.Load()] }

const (
	jobQueued int32 = iota
	jobRunning
	jobDone
)

// submit admits a job to the queue, or rejects it with errQueueFull /
// errDraining.  It never blocks.
func (s *Server) submit(j *job) error {
	// The admission read-lock pairs with Shutdown's write-lock: a submit
	// that sees draining==false is guaranteed to finish its channel send
	// before Shutdown closes the channel.
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.jobs <- j:
		s.metrics.submittedJob()
		return nil
	default:
		return errQueueFull
	}
}

// submitWait admits a job, blocking while the queue is full instead of
// rejecting — the batch handler's backpressure, so a batch larger than the
// queue trickles in as workers drain it.  The send happens under the same
// admission read-lock as submit: Shutdown's write-lock waits for any send in
// flight, so the channel cannot be closed under it.  ctx (the batch
// request's context) bounds the wait; a disconnected client stops feeding
// the queue.
func (s *Server) submitWait(ctx context.Context, j *job) error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.jobs <- j:
		s.metrics.submittedJob()
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// worker drains the job queue until it is closed.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.runJob(j)
	}
}

// runJob executes one admitted job with panic isolation and records its
// result and telemetry.  Transient failures (recovered panic, memory-limit
// trip) are re-run under a degraded budget up to Config.MaxJobRetries times
// with jittered exponential backoff; every attempt is journaled.
func (s *Server) runJob(j *job) {
	j.started = time.Now()
	j.status.Store(jobRunning)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var rep core.Report
	var panicErr *resource.PanicError
	for {
		s.journalStarted(j, j.attempt+1)
		rep, panicErr = s.executeIsolated(j)
		class, label := classifyOutcome(rep, panicErr)
		if class != classTransient {
			break
		}
		if j.attempt >= s.cfg.MaxJobRetries {
			s.log.Warn("job failed after final attempt",
				"job", j.id, "attempt", j.attempt+1, "class", label)
			break
		}
		delay := retryDelay(s.cfg.RetryBackoff, j.attempt)
		s.metrics.jobRetry(label)
		s.journalRetry(j, j.attempt+1, label)
		s.log.Warn("transient job failure, retrying degraded",
			"job", j.id, "attempt", j.attempt+1, "class", label, "backoff", delay)
		j.attempt++
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-j.ctx.Done():
			t.Stop()
		}
		if j.ctx.Err() != nil {
			// The job's budget is gone (drain or client disconnect): nobody
			// is waiting on a re-run; report the last failure as-is.
			break
		}
	}
	res := s.buildResponse(j, rep, panicErr)
	if j.attempt > 0 {
		res.Attempts = j.attempt + 1
	}

	queued := j.started.Sub(j.enqueued)
	ran := time.Since(j.started)
	res.Timings.QueueMS = float64(queued.Microseconds()) / 1e3
	res.Timings.TotalMS = float64(ran.Microseconds()) / 1e3

	ddStats := rep.DD
	if rep.EC != nil {
		ddStats.Add(rep.EC.DD)
	}
	s.metrics.finishedJob(res, queued, ran, ddStats, rep.Mem, panicErr != nil)

	if s.cache != nil && j.cacheOK && cacheable(res) {
		s.cache.put(j.ckey, *res)
	}
	s.journalFinished(j, res)
	s.log.Info("job finished",
		"job", j.id, "fp", j.ckey.pair.String(), "verdict", res.Verdict,
		"attempt", j.attempt+1, "cancelled", res.Cancelled)
	j.result = res
	j.status.Store(jobDone)
	j.cancel(nil)
	close(j.done)
	s.retireJob(j)
}

// executeIsolated runs the check behind a recover barrier, so a panicking
// job is converted into a typed error response and the daemon lives on.
// Checker-internal panic isolation (simulation workers, provers) already
// catches most faults; this is the last line of defense for the paths that
// have no recover of their own (parser-adjacent code, the flow itself).
func (s *Server) executeIsolated(j *job) (rep core.Report, panicErr *resource.PanicError) {
	defer func() {
		if r := recover(); r != nil {
			panicErr = resource.NewPanicError("server: job "+j.id, r)
		}
	}()
	rep = s.exec(j)
	return rep, nil
}

// runCheck is the default job executor (Server.exec): it runs the flow on
// the job's options.
func (s *Server) runCheck(j *job) core.Report {
	opts, cancel := s.jobOptions(j)
	defer cancel()
	return core.Check(j.g1, j.g2, opts)
}

// jobOptions translates the wire options into core.Options under the
// server's clamps, with a context bounded by the job's timeout (release it
// with cancel).  A re-run after a transient failure (attempt > 0) runs on
// the Degraded() options: sequential simulation, fresh packages instead of
// warm pooled ones, bounded DD growth.
func (s *Server) jobOptions(j *job) (core.Options, context.CancelFunc) {
	o := j.req.Options
	timeout := s.cfg.DefaultTimeout
	if o.TimeoutMS > 0 {
		timeout = time.Duration(o.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)

	parallel := o.Parallel
	if parallel > s.cfg.MaxParallel {
		parallel = s.cfg.MaxParallel
	}
	strategy, _ := ec.ParseStrategy(o.Strategy) // validated at admission
	nodeLimit := o.NodeLimit
	if nodeLimit < 0 {
		nodeLimit = 0
	}

	opts := core.Options{
		Context:           ctx,
		R:                 o.R,
		Seed:              o.Seed,
		Parallel:          parallel,
		SkipEC:            o.SimOnly,
		Strategy:          strategy,
		ECTimeout:         timeout,
		ECNodeLimit:       nodeLimit,
		UpToGlobalPhase:   o.UpToGlobalPhase,
		FidelityThreshold: o.FidelityThreshold,
		Tolerance:         o.Tolerance,
		MemSoftLimit:      s.cfg.MemSoftLimit,
		MemHardLimit:      s.cfg.MemHardLimit,
		Pool:              s.ddPool,
	}
	if j.attempt > 0 {
		opts = opts.Degraded()
	}
	return opts, cancel
}

// buildResponse converts a flow report (or an isolated panic) into the wire
// response.
func (s *Server) buildResponse(j *job, rep core.Report, panicErr *resource.PanicError) *CheckResponse {
	res := &CheckResponse{JobID: j.id}
	switch {
	case panicErr != nil:
		res.Verdict = VerdictError
		res.Error = panicErr.Error()
	case rep.Err != nil:
		res.Verdict = VerdictError
		res.Error = rep.Err.Error()
	default:
		res.Verdict = wireVerdict(rep.Verdict)
	}
	res.NumSims = rep.NumSims
	res.DecidedBy = rep.DecidedBy
	res.Exhaustive = rep.Exhaustive
	res.MinFidelity = rep.MinFidelity
	res.Cancelled = rep.Cancelled
	if rep.CancelCause != nil {
		res.CancelCause = rep.CancelCause.Error()
	}
	if ce := rep.Counterexample; ce != nil {
		res.Counterexample = &Counterexample{
			Input:    ce.Input,
			Fidelity: ce.Fidelity,
			StateG:   ce.StateG,
			StateGp:  ce.StateGp,
		}
	}
	if rep.EC != nil {
		res.ECVerdict = rep.EC.Verdict.String()
		res.Timings.ECMS = float64(rep.EC.Runtime.Microseconds()) / 1e3
	}
	res.Timings.SimMS = float64(rep.SimTime.Microseconds()) / 1e3
	ddStats := rep.DD
	if rep.EC != nil {
		ddStats.Add(rep.EC.DD)
	}
	res.DD = wireDD(ddStats)
	res.Mem = wireMem(rep.Mem)
	return res
}

// retireJob records a finished async job for GET /v1/jobs/{id}, evicting the
// oldest finished jobs beyond the retention bound.  Evicted ids are kept in
// a bounded tombstone set so polls for them answer 410 job_evicted rather
// than 404, and their idempotency keys are released for reuse.
//
// A retained job keeps only what it still serves: polls read its result,
// and claimIdem (under jobsMu) its cache key and options.  Its circuits and
// QASM sources are dropped here.
func (s *Server) retireJob(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if _, tracked := s.byID[j.id]; !tracked {
		return // sync job: never registered for async lookup
	}
	j.g1, j.g2 = nil, nil
	j.req.G, j.req.Gp = "", ""
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.CompletedJobs {
		evict := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if ej := s.byID[evict]; ej != nil && ej.idemKey != "" && s.idemByKey[ej.idemKey] == evict {
			delete(s.idemByKey, ej.idemKey)
		}
		delete(s.byID, evict)
		s.markEvictedLocked(evict)
		s.metrics.evictedJob()
	}
}

// markEvictedLocked tombstones an evicted job id (jobsMu held).  The set is
// bounded well above the retention window; once an id ages out of it too,
// polls degrade from 410 back to 404, which is the honest answer for a
// client that stayed away that long.
func (s *Server) markEvictedLocked(id string) {
	s.evicted[id] = struct{}{}
	s.evictedOrder = append(s.evictedOrder, id)
	bound := 4 * s.cfg.CompletedJobs
	if bound < 1024 {
		bound = 1024
	}
	for len(s.evictedOrder) > bound {
		old := s.evictedOrder[0]
		s.evictedOrder = s.evictedOrder[1:]
		delete(s.evicted, old)
	}
}

// Shutdown drains the server: admission stops immediately (submit returns
// errDraining), queued and running jobs are given until ctx expires to
// finish, then the base context is cancelled with a *DrainError cause and
// the remaining checks stop at their next cooperative cancellation point.
// Shutdown returns nil on a clean drain and ctx.Err() when the deadline
// forced cancellation; it is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		close(s.jobs)
		s.admitMu.Unlock()
	})

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	start := time.Now()
	select {
	case <-done:
		s.baseCancel(nil)
		s.closeJournal()
		return nil
	case <-ctx.Done():
		s.baseCancel(&DrainError{Waited: time.Since(start)})
		<-done // workers observe the cancellation and finish promptly
		s.closeJournal()
		return ctx.Err()
	}
}

// closeJournal syncs and closes the journal after the workers have stopped,
// so the last finished records reach the disk before the process exits.
func (s *Server) closeJournal() {
	if s.journal != nil {
		s.journal.close()
	}
}
