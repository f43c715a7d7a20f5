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
// Every job has one lifecycle: admit takes it from intake to the queue or
// answers it from the cache, track registers it for GET /v1/jobs/{id} and
// key lookups, and finish ends it, whether a worker ran it, the cache
// answered it or the journal replayed it.
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
	byID         map[string]*job   // tracked jobs (see track)
	doneOrder    []string          // finished tracked jobs, oldest first
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
// finished jobs are tracked as done (their verdicts feed the verdict cache
// and GET /v1/jobs/{id}), unfinished accepted jobs are rebuilt, tracked and
// returned for re-admission, and the id counter advances past every
// journaled id.
func (s *Server) replayJournal(st *replayState) []*job {
	if cur := s.nextID.Load(); st.maxID > cur {
		s.nextID.Store(st.maxID)
	}
	var requeue []*job
	var served int
	for _, id := range st.order {
		rj := st.jobs[id]
		switch {
		case rj.aborted:
		case rj.result != nil:
			s.replayFinished(rj)
			served++
		case rj.req == nil:
			s.log.Warn("journal: job has no accepted record, dropped", "job", rj.id)
		default:
			j, apiErr := s.buildJobWithID(rj.id, *rj.req)
			if apiErr != nil {
				s.log.Warn("journal: recovered request no longer parses, dropped",
					"job", rj.id, "err", apiErr.msg)
				continue
			}
			j.idemKey = rj.idemKey
			j.attempt = rj.attempts // degrade like a retry: it already failed mid-run once
			s.track(j)              // no other replayed job holds its key (replayState.apply)
			requeue = append(requeue, j)
		}
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

// replayFinished serves one journaled finished job without re-execution:
// tracked under its id and key, and finished with its journaled verdict,
// which goes back into the cache.  Its cache key comes from the journaled
// fingerprint and options (questionKey), so replay parses no QASM; like any
// retired job it keeps the options, which keyed retries are compared
// against, but not the sources.  A job whose key cannot be rebuilt (its
// accepted record lost, or a fingerprint or strategy name this build does
// not parse) still serves by id, uncached.
func (s *Server) replayFinished(rj *replayJob) {
	var opts CheckOptions
	if rj.req != nil {
		opts = rj.req.Options
	}
	fp, fpErr := fingerprint.ParseDigest(rj.fp)
	ckey, keyErr := questionKey(fp, opts)
	j := s.newJob(rj.id, CheckRequest{Options: opts}, ckey)
	j.idemKey = rj.idemKey
	j.cacheOK = j.cacheOK && rj.req != nil && fpErr == nil && keyErr == nil
	s.track(j) // no other replayed job holds its key (replayState.apply)
	s.finish(j, rj.result, false)
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
// it to rebuild an unfinished job with the id the client was already
// promised.
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
	ckey, err := questionKey(fingerprint.Pair(g1, g2), req.Options)
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, CodeBadRequest, err.Error()}
	}
	j := s.newJob(id, req, ckey)
	j.g1, j.g2 = g1, g2
	return j, nil
}

// questionKey is the verdict-cache key of asking o about the circuit pair
// whose fingerprint is fp.  Admission passes the parsed pair's fingerprint,
// replay a finished job's journaled one, so both key a question alike and
// replay parses no QASM.  Its one error is a strategy name that does not
// parse.
func questionKey(fp fingerprint.Digest, o CheckOptions) (cacheKey, error) {
	strategy, err := ec.ParseStrategy(o.Strategy)
	return cacheKey{
		pair:      fp,
		strategy:  strategy,
		tolerance: normalizeTolerance(o.Tolerance),
		upToPhase: o.UpToGlobalPhase,
	}, err
}

// newJob is a job for req under id, keyed ckey.
func (s *Server) newJob(id string, req CheckRequest, ckey cacheKey) *job {
	j := &job{
		id:       id,
		req:      req,
		ckey:     ckey,
		enqueued: time.Now(),
		done:     make(chan struct{}),
		// Approximate checking redefines the equivalence criterion per
		// request; those verdicts are neither served from nor inserted into
		// the cache.
		cacheOK: req.Options.FidelityThreshold == 0,
	}
	j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
	return j
}

// decodeJob decodes a single-check body and builds its job, writing the
// HTTP error response on failure.
func (s *Server) decodeJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
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

// admit is the one admission path of /v1/check and /v1/jobs.  A tracked
// job (every /v1/jobs job, and a /v1/check that carries an Idempotency-Key)
// is registered first, so a fast worker cannot finish it before GET
// /v1/jobs/{id} sees it; when its key is already held, the request attaches
// to the holder if it asks the same question and is a 409 if not.  Then the
// cache answers, or the job is queued: a tracked job's accepted record is
// made durable first, and journaled aborted and untracked when the queue
// rejects the job.  admit returns the job that answers the request, j or
// its key's holder, or nil once it has written an error response.
func (s *Server) admit(w http.ResponseWriter, j *job, tracked bool) *job {
	if tracked {
		if h := s.track(j); h != nil {
			j.cancel(nil)
			// "Same question" mirrors the batch deduplication criterion:
			// same fingerprint-derived cache key and same option set.
			if h.ckey != j.ckey || h.req.Options != j.req.Options {
				s.metrics.idemConflict()
				s.fail(w, http.StatusConflict, CodeIdemConflict,
					fmt.Sprintf("Idempotency-Key %q was already used for a different request", j.idemKey))
				return nil
			}
			s.metrics.idemHit()
			return h
		}
	}
	if res, hit := s.cachedResponse(j); hit {
		// Asynchronous on purpose: losing these records re-answers a cached
		// question after restart, which is cheap and correct.
		s.journalAccepted(j, false)
		s.journalFinished(j, res)
		s.finish(j, res, true)
		return j
	}
	err := s.journalAccepted(j, true)
	if err == nil {
		if err = s.submit(j); err != nil {
			s.journalAborted(j)
		}
	}
	if err == nil {
		if tracked {
			s.log.Info("job accepted", "job", j.id, "fp", j.ckey.pair.String(), "idem_key", j.idemKey)
		}
		return j
	}
	if tracked {
		s.jobsMu.Lock()
		s.untrackLocked(j)
		s.jobsMu.Unlock()
	}
	j.cancel(nil)
	switch {
	case errors.Is(err, errDraining):
		s.metrics.rejectedJob("draining")
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.fail(w, http.StatusServiceUnavailable, CodeDraining, "server is shutting down")
	case errors.Is(err, errQueueFull):
		s.metrics.rejectedJob("queue_full")
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.fail(w, http.StatusTooManyRequests, CodeQueueFull,
			fmt.Sprintf("job queue full (%d pending)", s.cfg.QueueDepth))
	default:
		s.fail(w, http.StatusInternalServerError, CodeJournal, "journal append failed: "+err.Error())
	}
	return nil
}

// track registers j for GET /v1/jobs/{id} and, when it carries an
// Idempotency-Key, for lookups by that key; untrackLocked undoes it.  It is
// the one place a job enters byID.  A key held by a tracked job stays with
// it: track then registers nothing and returns the holder.
func (s *Server) track(j *job) (holder *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if j.idemKey != "" {
		// A key maps only to a tracked job, and no job has the id "".
		if h := s.byID[s.idemByKey[j.idemKey]]; h != nil {
			return h
		}
		s.idemByKey[j.idemKey] = j.id
	}
	s.byID[j.id] = j
	j.tracked = true
	return nil
}

// untrackLocked removes j from byID and releases its key, unless a later
// job holds it (jobsMu held).
func (s *Server) untrackLocked(j *job) {
	delete(s.byID, j.id)
	if j.idemKey != "" && s.idemByKey[j.idemKey] == j.id {
		delete(s.idemByKey, j.idemKey)
	}
}

// handleCheck is POST /v1/check: admit, wait for the result, respond.  A
// keyless check is neither tracked nor journaled.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	j, ok := s.decodeJob(w, r)
	if !ok {
		return
	}
	a := s.admit(w, j, j.idemKey != "")
	if a == nil {
		return
	}
	if a == j {
		// A client disconnect cancels the check; once j is done, its
		// cancel is a no-op.
		stop := context.AfterFunc(r.Context(), func() {
			j.cancel(context.Cause(r.Context()))
		})
		defer stop()
	}
	// A request attached to its key's holder waits on the holder's
	// execution, bounded by this request's context.
	select {
	case <-a.done:
		writeJSON(w, http.StatusOK, a.result)
	case <-r.Context().Done():
	}
}

// handleSubmitJob is POST /v1/jobs: admit and return 202 immediately.  With
// a journal configured, the 202 is written only after the job's accepted
// record is fsynced — the id a client holds always survives a crash.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.decodeJob(w, r)
	if !ok {
		return
	}
	if a := s.admit(w, j, true); a != nil {
		writeJSON(w, http.StatusAccepted, a.response())
	}
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
	writeJSON(w, http.StatusOK, j.response())
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

// normalizeTolerance folds the wire tolerance's zero default to the value
// core.Check actually uses, so the cache key cannot split one question into
// several entries.
func normalizeTolerance(tol float64) float64 {
	if tol == 0 {
		return cn.DefaultTolerance
	}
	return tol
}
