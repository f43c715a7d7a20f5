// Command qcecd serves quantum-circuit equivalence checking over HTTP.
//
//	qcecd -addr :8787 -workers 4 -mem-limit 2048
//
// Endpoints (see internal/server):
//
//	POST /v1/check     synchronous check: {"g": "<qasm>", "gp": "<qasm>", "options": {...}}
//	POST /v1/batch     up to -max-batch-items pairs in one request, per-item results
//	POST /v1/jobs      asynchronous check, returns 202 + job id
//	GET  /v1/jobs/{id} job status / result
//	GET  /healthz      200 while serving, 503 once draining
//	GET  /metrics      Prometheus text exposition
//
// SIGTERM/SIGINT starts a graceful drain: admission stops (429/503 for new
// work), admitted jobs run to completion within -drain-timeout, stragglers
// are cancelled cleanly, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qcec/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8787", "listen address (host:port; port 0 picks a free port)")
		addrFile   = flag.String("addr-file", "", "write the bound listen address to this file once serving (for test harnesses)")
		workers    = flag.Int("workers", 0, "concurrent checking workers (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 64, "admitted-but-not-started job bound; beyond it requests get 429")
		maxBody    = flag.Int64("max-body-bytes", 4<<20, "request-body size bound in bytes")
		maxQubits  = flag.Int("max-qubits", 0, "reject circuits with more qubits (0 = no bound)")
		maxGates   = flag.Int("max-gates", 0, "reject circuits with more gates, or with more than 4x as many macro calls (0 = no bound)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-check deadline when the request sets none")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "largest per-check deadline a request may ask for")
		memLimit   = flag.Int("mem-limit", 0, "per-job hard heap budget in MiB; the check is cancelled cleanly when exceeded (0 = none)")
		memSoft    = flag.Int("mem-soft-limit", 0, "per-job soft heap budget in MiB: force DD collections above it (0 = 80% of -mem-limit)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for running checks")
		retained   = flag.Int("jobs-retained", 256, "finished async jobs kept for GET /v1/jobs/{id}")
		batchItems = flag.Int("max-batch-items", 128, "largest POST /v1/batch item count")
		cacheSize  = flag.Int("cache-entries", 1024, "verdict memoization cache bound (-1 disables)")
		poolSize   = flag.Int("pool-packages", 0, "warm DD packages kept per (qubits, tolerance) bucket (0 = worker count, -1 disables)")
		journalDir = flag.String("journal-dir", "", "directory for the durable job journal; accepted async jobs survive a crash or restart (empty disables)")
		maxRetries = flag.Int("max-job-retries", 2, "degraded re-runs after a transient job failure such as a recovered panic or memory-limit trip (-1 disables)")
		retryWait  = flag.Duration("retry-backoff", 100*time.Millisecond, "base backoff before the first job retry; doubles per attempt with jitter")
		logLevel   = flag.String("log-level", "info", "structured-log threshold: debug|info|warn|error")
		logFormat  = flag.String("log-format", "text", "structured-log encoding: text|json")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcecd: %v\n", err)
		return 2
	}

	memHardBytes := uint64(*memLimit) << 20
	memSoftBytes := uint64(*memSoft) << 20
	if memSoftBytes == 0 && memHardBytes > 0 {
		memSoftBytes = memHardBytes / 10 * 8
	}

	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		MaxBodyBytes:   *maxBody,
		MaxQubits:      *maxQubits,
		MaxGates:       *maxGates,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MemSoftLimit:   memSoftBytes,
		MemHardLimit:   memHardBytes,
		CompletedJobs:  *retained,
		MaxBatchItems:  *batchItems,
		CacheEntries:   *cacheSize,
		PoolPackages:   *poolSize,
		JournalDir:     *journalDir,
		MaxJobRetries:  *maxRetries,
		RetryBackoff:   *retryWait,
		Logger:         logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		return 1
	}

	// Listen before announcing, so the logged/filed address is bound and a
	// harness polling -addr-file can connect immediately.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	bound := ln.Addr().String()
	logger.Info("listening", "addr", bound, "journal_dir", *journalDir)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			logger.Error("write -addr-file failed", "path", *addrFile, "err", err)
			return 1
		}
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "timeout", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain deadline hit, checks cancelled", "err", err)
		}
		// The pool is drained; now close the HTTP side (idle keep-alives).
		httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer httpCancel()
		_ = httpSrv.Shutdown(httpCtx)
		logger.Info("drained, bye")
		return 0
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		return 1
	}
}

// buildLogger maps the -log-level / -log-format flags to a slog.Logger on
// stderr (stdout stays free for anything a harness pipes around).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
	}
}
