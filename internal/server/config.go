package server

import (
	"io"
	"log/slog"
	"runtime"
	"time"

	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/qasm"
)

// Config parameterizes a Server.  The zero value is usable: withDefaults
// fills every field with a sane production default.
type Config struct {
	// Workers is the number of concurrent checking workers — the hard bound
	// on in-flight checks (default: GOMAXPROCS, at least 1).  Each worker
	// runs one job at a time; a job's own simulation-stage parallelism is
	// additionally capped at MaxParallel.
	Workers int
	// QueueDepth bounds the number of admitted-but-not-started jobs
	// (default 64).  A full queue rejects with 429 + Retry-After rather
	// than queueing unboundedly — the memory a pending job pins (two parsed
	// circuits) is the server's real admission currency.
	QueueDepth int
	// MaxParallel caps a single job's simulation-stage worker count
	// (default 4).  Requests asking for more are clamped, not rejected.
	MaxParallel int
	// MaxBodyBytes bounds every POST body (default 4 MiB).  A declared
	// Content-Length above it is a 413 body_too_large before any byte is
	// read, and so is a body that runs past it, even when its JSON value
	// ends before the limit.  A body must be exactly one JSON value:
	// anything but whitespace after the value is a 400 bad_request.
	MaxBodyBytes int64
	// MaxQubits / MaxGates reject circuits beyond the deployment's size
	// envelope with 413 circuit_too_large.  MaxGates 0 means no bound;
	// MaxQubits 0, or anything above dd.MaxQubits, means dd.MaxQubits, the
	// widest register the checkers can run.
	MaxQubits int
	MaxGates  int
	// DefaultTimeout bounds a check when the request sets none (default
	// 30s); MaxTimeout caps what a request may ask for (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MemSoftLimit / MemHardLimit, in bytes, put every job under a
	// per-job resource.Watchdog (0 = no memory budget).
	MemSoftLimit uint64
	MemHardLimit uint64
	// RetryAfter is the hint returned with 429 responses (default 1s,
	// rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// CompletedJobs bounds how many finished async jobs are retained for
	// GET /v1/jobs/{id} before the oldest are evicted (default 256).
	CompletedJobs int
	// MaxBatchItems bounds the number of pairs POST /v1/batch accepts in
	// one request (default 128; larger batches are rejected with 413).
	MaxBatchItems int
	// CacheEntries bounds the verdict memoization cache (default 1024
	// entries; negative disables caching).  Only definitive verdicts are
	// stored, so cache size trades repeat-check latency against memory.
	CacheEntries int
	// PoolPackages bounds how many warm DD packages are retained per
	// (qubits, tolerance) bucket for reuse across jobs (default: the worker
	// count; negative disables pooling and every job builds fresh tables).
	PoolPackages int
	// JournalDir, when non-empty, enables the durable job journal: accepted
	// async jobs (and idempotent sync checks) are logged to an append-only
	// WAL in this directory, and startup replays it — re-enqueueing
	// unfinished jobs and serving finished verdicts — so a crash or restart
	// loses no accepted work.  Empty disables durability (jobs live only in
	// process memory, the pre-journal behavior).
	JournalDir string
	// MaxJobRetries bounds how many times a job felled by a transient
	// failure (recovered panic, memory-limit trip) is re-run under a
	// degraded budget before the error is returned to the client (default
	// 2; negative disables retries).
	MaxJobRetries int
	// RetryBackoff is the base delay before the first retry; attempt k
	// waits RetryBackoff·2^k with full jitter, capped at 5s (default
	// 100ms).
	RetryBackoff time.Duration
	// Logger receives the daemon's structured logs (job lifecycle, retry
	// decisions, journal recovery).  nil discards them, which keeps library
	// and test use quiet by default.
	Logger *slog.Logger

	// testExec, when set, replaces the job executor before the workers start
	// (and before recovered jobs requeue) — swapping Server.exec after New
	// races with workers draining a recovered backlog.
	testExec func(*job) core.Report
	// testReleaseParse, when set, sees every parse storage given back for
	// reuse before it goes on the free list.
	testReleaseParse func(*qasm.Storage)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxParallel <= 0 {
		c.MaxParallel = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxQubits <= 0 || c.MaxQubits > dd.MaxQubits {
		c.MaxQubits = dd.MaxQubits
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CompletedJobs <= 0 {
		c.CompletedJobs = 256
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 128
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.PoolPackages == 0 {
		c.PoolPackages = c.Workers
	}
	switch {
	case c.MaxJobRetries == 0:
		c.MaxJobRetries = 2
	case c.MaxJobRetries < 0:
		c.MaxJobRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}
