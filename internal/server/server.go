// Package server implements qcecd, a long-running HTTP/JSON equivalence-
// checking service over the repo's simulation-first flow (internal/core).
//
// The daemon turns the library into infrastructure: compiler CI posts a pair
// of QASM circuits and gets back a verdict, a counterexample stimulus when
// the pair differs, per-stage timings, and the DD-engine telemetry — without
// linking the checker or paying a process start per query (the gate registry
// and interned-weight tables amortize across requests within a worker).
//
// The serving core is a bounded worker pool over a bounded queue:
//
//   - Admission control: a full queue rejects with 429 + Retry-After instead
//     of queueing unboundedly.  Checks are memory-hungry (a DD blow-up is a
//     heap blow-up), so backpressure must happen before work starts.
//   - Per-job budgets: every check runs under a deadline (request-supplied,
//     clamped to the server max) and, when configured, a per-job
//     resource.Watchdog memory budget.
//   - Panic isolation: a panicking check becomes a verdict:"error" response
//     (resource.PanicError), never a daemon crash.
//   - Graceful drain: Shutdown stops admission, finishes admitted jobs, and
//     cancels stragglers with a typed *DrainError cause at the deadline.
//   - Durability (optional, Config.JournalDir): job transitions go to an
//     append-only WAL (internal/wal) replayed on startup — finished verdicts
//     survive restarts, unfinished jobs re-enqueue, Idempotency-Key retries
//     attach to journaled work, and transient failures re-run with degraded
//     options under a classified retry budget.
//
// Endpoints: POST /v1/check (synchronous), POST /v1/jobs + GET /v1/jobs/{id}
// (asynchronous batch), GET /healthz, GET /metrics (Prometheus text).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/fingerprint"
	"qcec/internal/qasm"
)

// Server is the checking service.  Create it with New, serve s.Handler(),
// and stop it with Shutdown.
type Server struct {
	cfg     Config
	metrics *metrics
	log     *slog.Logger

	// baseCtx parents every job context; baseCancel carries the drain cause.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	jobs     chan *job
	wg       sync.WaitGroup
	inflight atomic.Int64
	nextID   atomic.Uint64

	admitMu   sync.RWMutex
	draining  bool
	drainOnce sync.Once

	jobsMu       sync.Mutex
	byID         map[string]*job   // async (and idempotent sync) jobs
	doneOrder    []string          // finished async jobs, oldest first
	idemByKey    map[string]string // Idempotency-Key → job id
	evicted      map[string]struct{}
	evictedOrder []string // eviction order, oldest first (bounds evicted)

	// cache memoizes definitive verdicts across requests (nil = disabled).
	cache *verdictCache
	// ddPool recycles warm DD packages across jobs (nil = disabled).
	ddPool *dd.Pool
	// journal is the durable job WAL (nil = durability disabled).
	journal *journal

	// exec runs one admitted job; tests swap it to control timing and
	// failure modes without real circuits.
	exec func(*job) core.Report
}

// New builds a server under cfg, replays its journal when Config.JournalDir
// is set (re-enqueueing unfinished jobs, serving finished verdicts), and
// starts its worker pool.  The only error sources are journal I/O problems;
// a journal-less configuration never fails.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		metrics:    newMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(chan *job, cfg.QueueDepth),
		byID:       make(map[string]*job),
		idemByKey:  make(map[string]string),
		evicted:    make(map[string]struct{}),
		cache:      newVerdictCache(cfg.CacheEntries),
	}
	if cfg.PoolPackages > 0 {
		s.ddPool = dd.NewPool(cfg.PoolPackages)
	}
	s.exec = s.runCheck
	if cfg.testExec != nil {
		// Installed before workers start and recovered jobs requeue, so
		// tests controlling execution timing never race the worker reads.
		s.exec = cfg.testExec
	}

	var requeue []*job
	if cfg.JournalDir != "" {
		jl, st, err := openJournal(cfg.JournalDir)
		if err != nil {
			cancel(nil)
			return nil, err
		}
		s.journal = jl
		requeue = s.replayJournal(st)
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if len(requeue) > 0 {
		// Re-admission blocks on queue room like a batch submit, so a
		// recovered backlog larger than the queue trickles in behind the
		// workers instead of failing or deadlocking startup.
		go func() {
			for _, j := range requeue {
				if err := s.submitWait(s.baseCtx, j); err != nil {
					s.log.Warn("recovered job not re-enqueued", "job", j.id, "err", err)
					j.cancel(nil)
				}
			}
		}()
	}
	return s, nil
}

// replayJournal turns the replayed journal state into live server state:
// finished jobs are registered done (their verdicts feed the verdict cache
// and GET /v1/jobs/{id}), unfinished accepted jobs are rebuilt and returned
// for re-admission, and the id counter advances past every journaled id.
func (s *Server) replayJournal(st *replayState) []*job {
	if cur := s.nextID.Load(); st.maxID > cur {
		s.nextID.Store(st.maxID)
	}
	var requeue []*job
	var served int
	for _, id := range st.order {
		rj := st.jobs[id]
		if rj.aborted {
			continue
		}
		if rj.result != nil {
			s.recoverFinished(rj)
			served++
			continue
		}
		if rj.req == nil {
			s.log.Warn("journal: job has no accepted record, dropped", "job", rj.id)
			continue
		}
		j, apiErr := s.buildJobWithID(rj.id, *rj.req)
		if apiErr != nil {
			s.log.Warn("journal: recovered request no longer parses, dropped",
				"job", rj.id, "err", apiErr.msg)
			continue
		}
		j.idemKey = rj.idemKey
		j.journaled = true
		j.attempt = rj.attempts // degrade like a retry: it already failed mid-run once
		s.jobsMu.Lock()
		s.byID[j.id] = j
		if j.idemKey != "" {
			s.idemByKey[j.idemKey] = j.id
		}
		s.jobsMu.Unlock()
		requeue = append(requeue, j)
	}
	s.journal.recovered = uint64(served)
	s.journal.requeued = uint64(len(requeue))
	s.log.Info("journal replayed",
		"records", s.journal.replayed,
		"finished_served", served,
		"requeued", len(requeue),
		"torn_tail", s.journal.tornTails == 1)
	return requeue
}

// recoverFinished registers one journaled finished job as an
// already-completed async job and feeds its verdict to the cache, so both
// GET /v1/jobs/{id} polls and fresh identical questions are answered
// without re-execution.  Like any retired job it keeps the request's
// options, which keyed retries are compared against, but not its sources.
func (s *Server) recoverFinished(rj *replayJob) {
	res := *rj.result
	j := &job{id: rj.id, idemKey: rj.idemKey, done: make(chan struct{}), result: &res}
	j.status.Store(jobDone)
	j.cancel = func(error) {}
	close(j.done)
	if rj.req != nil {
		j.req.Options = rj.req.Options
		// Rebuild the cache key from the journaled request; a parse failure
		// (e.g. a size envelope tightened between restarts) only skips the
		// cache insert, the stored verdict still serves by job id.
		if cj, apiErr := s.buildJobWithID(rj.id, *rj.req); apiErr == nil {
			j.ckey, j.cacheOK = cj.ckey, cj.cacheOK
			cj.cancel(nil)
			if s.cache != nil && j.cacheOK && cacheable(j.result) {
				s.cache.put(j.ckey, *j.result)
			}
		}
	}
	s.jobsMu.Lock()
	s.byID[j.id] = j
	if j.idemKey != "" {
		s.idemByKey[j.idemKey] = j.id
	}
	s.jobsMu.Unlock()
	s.retireJob(j)
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is a typed request failure carried between buildJob and the
// handlers: the single-request endpoints map status to the HTTP response
// code, the batch endpoint embeds code+message item-locally and keeps 200.
type apiError struct {
	status int
	code   string
	msg    string
}

// buildJob parses and validates one check request into an admissible job
// under a freshly issued id.
func (s *Server) buildJob(req CheckRequest) (*job, *apiError) {
	return s.buildJobWithID(fmt.Sprintf("j%08d", s.nextID.Add(1)), req)
}

// buildJobWithID is buildJob under a caller-chosen id; journal recovery uses
// it to rebuild a job with the id the client was already promised.
func (s *Server) buildJobWithID(id string, req CheckRequest) (*job, *apiError) {
	if req.G == "" || req.Gp == "" {
		return nil, &apiError{http.StatusBadRequest, CodeBadRequest, `both "g" and "gp" circuits are required`}
	}
	g1, apiErr := s.parseCircuit("g", req.G)
	if apiErr != nil {
		return nil, apiErr
	}
	g2, apiErr := s.parseCircuit("gp", req.Gp)
	if apiErr != nil {
		return nil, apiErr
	}
	if _, err := ec.ParseStrategy(req.Options.Strategy); err != nil {
		return nil, &apiError{http.StatusBadRequest, CodeBadRequest, err.Error()}
	}
	j := &job{
		id:       id,
		req:      req,
		g1:       g1,
		g2:       g2,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	j.ckey = cacheKey{
		pair:      fingerprint.Pair(g1, g2),
		strategy:  normalizeStrategy(req.Options.Strategy),
		tolerance: normalizeTolerance(req.Options.Tolerance),
		upToPhase: req.Options.UpToGlobalPhase,
	}
	// Approximate checking redefines the equivalence criterion per request;
	// those verdicts are neither served from nor inserted into the cache.
	j.cacheOK = req.Options.FidelityThreshold == 0
	j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
	return j, nil
}

// newJob decodes a single-check body and builds its job, writing the HTTP
// error response on failure.
func (s *Server) newJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req CheckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failDecode(w, err)
		return nil, false
	}
	j, apiErr := s.buildJob(req)
	if apiErr != nil {
		s.fail(w, apiErr.status, apiErr.code, apiErr.msg)
		return nil, false
	}
	j.idemKey = r.Header.Get(IdempotencyKeyHeader)
	return j, true
}

// failDecode maps a request-body decoding error to its HTTP response.
func (s *Server) failDecode(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	s.fail(w, http.StatusBadRequest, CodeBadRequest, "invalid JSON: "+err.Error())
}

// parseCircuit parses one QASM source under the size envelope.  The parser
// enforces the envelope while it expands the source, so a short body that
// asks for a huge register or an exponential macro expansion is rejected
// before it is built.
func (s *Server) parseCircuit(field, src string) (*circuit.Circuit, *apiError) {
	prog, err := qasm.ParseLimited(src, s.cfg.MaxQubits, s.cfg.MaxGates)
	var tooLarge *qasm.LimitError
	switch {
	case errors.As(err, &tooLarge):
		return nil, &apiError{http.StatusRequestEntityTooLarge, CodeCircuitTooLarge,
			fmt.Sprintf("circuit %q exceeds the limit of %d %s", field, tooLarge.Limit, tooLarge.What)}
	case err != nil:
		return nil, &apiError{http.StatusBadRequest, CodeBadQASM,
			fmt.Sprintf("circuit %q: %v", field, err)}
	}
	return prog.Circuit, nil
}

// cachedResponse answers j from the verdict cache when possible, stamping
// the hit with this job's id.
func (s *Server) cachedResponse(j *job) (*CheckResponse, bool) {
	if s.cache == nil || !j.cacheOK {
		return nil, false
	}
	// A draining server rejects everything uniformly — even questions it
	// could answer from memory — so clients fail over promptly instead of
	// hammering a half-alive instance for the subset of answers it still has.
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		return nil, false
	}
	res, ok := s.cache.get(j.ckey)
	if !ok {
		s.metrics.cacheMiss()
		return nil, false
	}
	s.metrics.cacheHit()
	res.JobID = j.id
	return &res, true
}

// admit submits the job, translating rejections to HTTP responses.
func (s *Server) admit(w http.ResponseWriter, j *job) bool {
	switch err := s.submit(j); {
	case err == nil:
		return true
	case errors.Is(err, errDraining):
		j.cancel(nil)
		s.metrics.rejectedJob("draining")
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.fail(w, http.StatusServiceUnavailable, CodeDraining, "server is shutting down")
	default:
		j.cancel(nil)
		s.metrics.rejectedJob("queue_full")
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.fail(w, http.StatusTooManyRequests, CodeQueueFull,
			fmt.Sprintf("job queue full (%d pending)", s.cfg.QueueDepth))
	}
	return false
}

// claimIdem resolves j's Idempotency-Key under jobsMu.  It returns the
// already-registered job when the key maps to the same question, reports a
// conflict when it maps to a different one, and otherwise claims the key for
// j and registers it in byID (callers must unregisterJob on any later
// admission failure).
func (s *Server) claimIdem(j *job) (existing *job, conflict bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if id, ok := s.idemByKey[j.idemKey]; ok {
		if e := s.byID[id]; e != nil {
			// "Same question" mirrors the batch deduplication criterion:
			// same fingerprint-derived cache key and same option set.
			if e.ckey != j.ckey || e.req.Options != j.req.Options {
				return nil, true
			}
			return e, false
		}
		// The mapped job was evicted between requests: reclaim the key.
	}
	s.idemByKey[j.idemKey] = j.id
	s.byID[j.id] = j
	return nil, false
}

// unregisterJob undoes a pre-admission registration (byID plus the
// idempotency claim) after the job failed to be admitted or journaled.
func (s *Server) unregisterJob(j *job) {
	s.jobsMu.Lock()
	delete(s.byID, j.id)
	if j.idemKey != "" && s.idemByKey[j.idemKey] == j.id {
		delete(s.idemByKey, j.idemKey)
	}
	s.jobsMu.Unlock()
}

// resolveIdem handles the Idempotency-Key preamble shared by /v1/check and
// /v1/jobs: attach to an existing job, reject a key conflict, or claim the
// key.  done=true means an HTTP response was already written.
func (s *Server) resolveIdem(w http.ResponseWriter, j *job) (existing *job, done bool) {
	if j.idemKey == "" {
		return nil, false
	}
	existing, conflict := s.claimIdem(j)
	if conflict {
		j.cancel(nil)
		s.metrics.idemConflict()
		s.fail(w, http.StatusConflict, CodeIdemConflict,
			fmt.Sprintf("Idempotency-Key %q was already used for a different request", j.idemKey))
		return nil, true
	}
	if existing != nil {
		j.cancel(nil)
		s.metrics.idemHit()
		return existing, false
	}
	// Key claimed; this job is journaled when durability is on.
	j.journaled = s.journal != nil
	return nil, false
}

// finishWithoutRun marks a never-executed job done with res (cache hits,
// recovered duplicates) so GET /v1/jobs/{id} and the idempotency map see it
// exactly like an executed job.
func (s *Server) finishWithoutRun(j *job, res *CheckResponse) {
	j.result = res
	j.status.Store(jobDone)
	j.cancel(nil)
	close(j.done)
	s.jobsMu.Lock()
	s.byID[j.id] = j
	s.jobsMu.Unlock()
	if j.journaled {
		// Asynchronous on purpose: losing these records re-answers a cached
		// question after restart, which is cheap and correct.
		s.journalAccepted(j, false)
		s.journalFinished(j, res)
	}
	s.retireJob(j)
}

// handleCheck is POST /v1/check: admit, wait for the result, respond.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	j, ok := s.newJob(w, r)
	if !ok {
		return
	}
	existing, done := s.resolveIdem(w, j)
	if done {
		return
	}
	if existing != nil {
		// Same key, same question: wait on the original execution and serve
		// its verdict under its job id, bounded by this request's context.
		select {
		case <-existing.done:
			writeJSON(w, http.StatusOK, existing.result)
		case <-r.Context().Done():
		}
		return
	}
	if res, hit := s.cachedResponse(j); hit {
		if j.idemKey != "" {
			s.finishWithoutRun(j, res)
		} else {
			j.cancel(nil)
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	// A client disconnect cancels the running check; a finished job's
	// cancel(nil) makes this a no-op.
	stop := context.AfterFunc(r.Context(), func() {
		j.cancel(context.Cause(r.Context()))
	})
	defer stop()
	if j.journaled {
		if err := s.journalAccepted(j, true); err != nil {
			s.unregisterJob(j)
			j.cancel(nil)
			s.fail(w, http.StatusInternalServerError, CodeJournal, "journal append failed: "+err.Error())
			return
		}
	}
	if !s.admit(w, j) {
		if j.idemKey != "" {
			s.journalAborted(j)
			s.unregisterJob(j)
		}
		return
	}
	<-j.done
	writeJSON(w, http.StatusOK, j.result)
}

// handleSubmitJob is POST /v1/jobs: admit and return 202 immediately.  With
// a journal configured, the 202 is written only after the job's accepted
// record is fsynced — the id a client holds always survives a crash.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.newJob(w, r)
	if !ok {
		return
	}
	j.journaled = s.journal != nil
	existing, done := s.resolveIdem(w, j)
	if done {
		return
	}
	if existing != nil {
		resp := JobResponse{JobID: existing.id, Status: existing.statusString()}
		if resp.Status == StatusDone {
			resp.Result = existing.result
		}
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	if res, hit := s.cachedResponse(j); hit {
		// The job never runs: record it as already done so GET /v1/jobs/{id}
		// works exactly as for an executed job.
		s.finishWithoutRun(j, res)
		writeJSON(w, http.StatusAccepted, JobResponse{JobID: j.id, Status: j.statusString(), Result: res})
		return
	}
	// Register before admission so a fast worker cannot finish the job
	// before it is visible to GET /v1/jobs/{id}.
	s.jobsMu.Lock()
	s.byID[j.id] = j
	s.jobsMu.Unlock()
	if err := s.journalAccepted(j, true); err != nil {
		s.unregisterJob(j)
		j.cancel(nil)
		s.fail(w, http.StatusInternalServerError, CodeJournal, "journal append failed: "+err.Error())
		return
	}
	if !s.admit(w, j) {
		s.journalAborted(j)
		s.unregisterJob(j)
		return
	}
	s.log.Info("job accepted", "job", j.id, "fp", j.ckey.pair.String(), "idem_key", j.idemKey)
	writeJSON(w, http.StatusAccepted, JobResponse{JobID: j.id, Status: j.statusString()})
}

// handleGetJob is GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobsMu.Lock()
	j := s.byID[id]
	_, wasEvicted := s.evicted[id]
	s.jobsMu.Unlock()
	if j == nil {
		if wasEvicted {
			s.fail(w, http.StatusGone, CodeJobEvicted,
				fmt.Sprintf("job %q aged out of the completed-job retention window; resubmit the check", id))
			return
		}
		s.fail(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	resp := JobResponse{JobID: j.id, Status: j.statusString()}
	if resp.Status == StatusDone {
		resp.Result = j.result
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is GET /healthz: 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var cacheSize int
	var cacheEvictions uint64
	if s.cache != nil {
		cacheSize, cacheEvictions = s.cache.stats()
	}
	var pool dd.PoolStats
	if s.ddPool != nil {
		pool = s.ddPool.Stats()
	}
	var js journalStats
	journalOn := s.journal != nil
	if journalOn {
		js = s.journal.stats()
	}
	s.metrics.write(w, len(s.jobs), s.cfg.QueueDepth, int(s.inflight.Load()),
		s.cfg.Workers, draining, cacheSize, cacheEvictions, pool, journalOn, js)
}

// fail writes a typed JSON error body and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	if status < http.StatusInternalServerError && status != http.StatusTooManyRequests &&
		status != http.StatusServiceUnavailable {
		s.metrics.badRequest()
	}
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// normalizeStrategy folds the wire strategy's aliases so the cache key
// cannot split one scheme into several entries: "" selects the default
// (proportional), and the gate-cost spellings ("gate-cost", "gatecost",
// "compilation_flow") collapse onto the canonical "gate_cost".
func normalizeStrategy(name string) string {
	switch name {
	case "":
		return "proportional"
	case "gate-cost", "gatecost", "compilation_flow":
		return "gate_cost"
	}
	return name
}

// normalizeTolerance folds the wire tolerance's zero default to the value
// core.Check actually uses, for the same reason.
func normalizeTolerance(tol float64) float64 {
	if tol == 0 {
		return cn.DefaultTolerance
	}
	return tol
}
