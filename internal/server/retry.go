package server

import (
	"errors"
	"math/rand"
	"time"

	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/resource"
)

// Retry classification.
//
// A failed check is not one kind of event.  Some failures are facts about
// the request — malformed circuits never parse, a node budget the client
// chose will be exhausted again on every re-run — and retrying them burns a
// worker slot to learn nothing.  Others are facts about the moment: a
// recovered panic, a memory-watchdog hard trip, an injected fault.  Those
// are exactly the failures the prover race retries (core.Options
// RetryCrashed), and the serving layer applies the same policy to whole
// jobs: transient failures re-run up to Config.MaxJobRetries times with
// exponential backoff + full jitter on core.Options.Degraded() (sequential
// simulation, no warm-package reuse, the ec.DegradedNodeLimit budget), each
// attempt journaled and counted in qcecd_job_retries_total.
//
// Client-budget cancellations (request deadline, disconnect, server drain)
// are neither: the outcome the client paid for is "stopped", and retrying
// past the deadline would answer a question nobody is waiting on.

// errClass partitions job outcomes for the retry decision.
type errClass int

const (
	// classNone: a clean outcome (any verdict, including a cancellation by
	// the client's own budget) — never retried.
	classNone errClass = iota
	// classPermanent: deterministic failures a retry cannot fix.
	classPermanent
	// classTransient: environmental failures worth a degraded re-run.
	classTransient
)

// classifyOutcome maps one attempt's outcome to its retry class and a
// stable label for metrics, logs and journal records.
func classifyOutcome(rep core.Report, panicErr *resource.PanicError) (errClass, string) {
	if panicErr != nil {
		return classTransient, "panic"
	}
	var mem *resource.MemoryLimitError
	if errors.As(rep.Err, &mem) || errors.As(rep.CancelCause, &mem) {
		// Watchdog hard trip: the degraded budget shrinks the next
		// attempt's footprint, so a re-run can genuinely succeed.
		return classTransient, "mem_limit"
	}
	var pe *resource.PanicError
	if errors.As(rep.Err, &pe) {
		return classTransient, "panic"
	}
	if rep.Cancelled {
		var de *DrainError
		if errors.As(rep.CancelCause, &de) {
			return classNone, "drain"
		}
		return classNone, "cancelled"
	}
	if rep.EC != nil && rep.EC.Cause == ec.CauseNodeLimit {
		// The client's node budget is part of the question; re-asking the
		// same question exhausts it identically.
		return classPermanent, "node_limit"
	}
	if rep.Err != nil {
		return classPermanent, "error"
	}
	return classNone, ""
}

// retryDelay returns the backoff before attempt+2 (attempt is 0-based):
// base·2^attempt, capped, with full ±50% jitter so a burst of jobs felled
// by one memory spike does not re-land in lockstep.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << uint(attempt)
	if max := 5 * time.Second; d > max || d <= 0 { // <= 0 guards shift overflow
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// retryAfterSeconds renders the Retry-After hint for 429/503 responses with
// ±25% jitter, so the synchronized clients created by one queue-full moment
// do not re-stampede on the same second.  Always at least 1.
func retryAfterSeconds(d time.Duration) int {
	jittered := time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
	secs := int((jittered + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
