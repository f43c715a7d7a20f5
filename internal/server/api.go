package server

import (
	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/resource"
)

// This file defines the JSON wire types of the qcecd HTTP API.  Every field
// is plain data so responses marshal without touching checker internals.

// CheckOptions is the per-request knob subset of core.Options.  Zero values
// mean "server default"; the server clamps every field against its admission
// limits before a job is accepted.
type CheckOptions struct {
	// R is the number of random basis-state simulations (0 = core.DefaultR).
	R int `json:"r,omitempty"`
	// Seed drives stimulus selection; runs are deterministic per seed.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS bounds the whole check in milliseconds (0 = server default;
	// capped at the server's max).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Parallel is the simulation-stage worker count (0 or 1 = sequential;
	// capped at the server's per-job parallelism limit).
	Parallel int `json:"parallel,omitempty"`
	// Strategy selects the DD complete routine's gate order:
	// proportional|construction|sequential|lookahead|gate_cost
	// ("" = proportional; "gate-cost", "gatecost" and "compilation_flow"
	// are accepted aliases of gate_cost and share its cache entries).  A
	// Clifford pair's complete routine is the stabilizer tableau, whatever
	// the strategy.
	Strategy string `json:"strategy,omitempty"`
	// NodeLimit bounds the DD complete routine's size (0 = none).
	NodeLimit int `json:"node_limit,omitempty"`
	// UpToGlobalPhase accepts a scalar phase between the circuits.
	UpToGlobalPhase bool `json:"up_to_phase,omitempty"`
	// SimOnly skips the complete routine (simulation stage only).
	SimOnly bool `json:"sim_only,omitempty"`
	// FidelityThreshold enables approximate checking (see core.Options).
	FidelityThreshold float64 `json:"fidelity_threshold,omitempty"`
	// Tolerance overrides the DD weight tolerance (0 = server default,
	// 1e-10).  It parameterizes the equivalence relation, so it is part of
	// the verdict-cache key.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// CheckRequest is the body of POST /v1/check and POST /v1/jobs.  A body is
// exactly one JSON value, with nothing but whitespace after it, within
// Config.MaxBodyBytes: past the limit it is a 413 body_too_large, and a body
// that does not decode is a 400 bad_request.  It decodes as json.Unmarshal
// decodes it, so keys match case-insensitively and unknown keys are
// ignored; the json.Marshal form, with the keys spelled as below, is read
// without encoding/json's scanner.
type CheckRequest struct {
	// G and Gp are the two circuits as OpenQASM 2.0 source text.
	G  string `json:"g"`
	Gp string `json:"gp"`
	// Options tunes the check; the zero value uses server defaults.
	Options CheckOptions `json:"options"`
}

// Counterexample is a distinguishing stimulus in a CheckResponse.
type Counterexample struct {
	Input    uint64  `json:"input"`
	Fidelity float64 `json:"fidelity"`
	StateG   string  `json:"state_g,omitempty"`
	StateGp  string  `json:"state_gp,omitempty"`
}

// Timings reports where a job's wall-clock time went, in milliseconds.
type Timings struct {
	// QueueMS is the time between admission and a worker picking the job up.
	QueueMS float64 `json:"queue_ms"`
	// SimMS is the simulation stage (paper column t_sim), including the
	// basis columns simulated after a complete-check probe yielded.
	SimMS float64 `json:"sim_ms"`
	// ECMS is the complete routine (paper column t_ec; 0 if it never ran),
	// a yielded probe included.
	ECMS float64 `json:"ec_ms"`
	// TotalMS is the whole check, excluding queueing.
	TotalMS float64 `json:"total_ms"`
}

// DDStats is the wire shape of the DD telemetry attached to a response
// (simulation stage plus complete routine, summed).
type DDStats struct {
	GateHits      uint64 `json:"gate_hits"`
	GateMisses    uint64 `json:"gate_misses"`
	ComputeHits   uint64 `json:"compute_hits"`
	ComputeMisses uint64 `json:"compute_misses"`
	ApplyCalls    uint64 `json:"apply_calls"`
	ApplyHits     uint64 `json:"apply_hits"`
	NodesCreated  uint64 `json:"nodes_created"`
	GCRuns        int    `json:"gc_runs"`
	GCReclaimed   uint64 `json:"gc_reclaimed"`
	PressureGCs   uint64 `json:"pressure_gcs,omitempty"`
}

// WatchdogStats is the wire shape of the per-job memory watchdog counters
// (present only when the server runs jobs under a memory budget).
type WatchdogStats struct {
	Samples       uint64 `json:"samples"`
	SoftTrips     uint64 `json:"soft_trips"`
	HardTrips     uint64 `json:"hard_trips"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	PeakDDNodes   int64  `json:"peak_dd_nodes"`
}

// Verdict wire strings.  VerdictError is the service-level outcome for a
// check that failed rather than finished (recovered panic, degenerate
// input); the daemon itself stays healthy.
const (
	VerdictEquivalent         = "equivalent"
	VerdictEquivalentUpToPhas = "equivalent_up_to_phase"
	VerdictNotEquivalent      = "not_equivalent"
	VerdictProbablyEquivalent = "probably_equivalent"
	VerdictError              = "error"
)

// CheckResponse is the result of one equivalence check.
type CheckResponse struct {
	JobID   string `json:"job_id"`
	Verdict string `json:"verdict"`
	// NumSims is the number of basis-state simulations actually evaluated.
	NumSims int `json:"num_sims"`
	// Exhaustive reports that the simulations covered all 2^n basis states.
	Exhaustive  bool    `json:"exhaustive,omitempty"`
	MinFidelity float64 `json:"min_fidelity"`
	// ECVerdict is the complete routine's own verdict, when it ran; it is
	// omitted when the routine ran as a probe that yielded to simulating
	// the remaining basis columns (Timings.ECMS still holds the probe).
	ECVerdict string `json:"ec_verdict,omitempty"`
	// DecidedBy names the flow stage that produced a definitive verdict —
	// "sim", "stab" (a Clifford pair's tableau) or "ec:<strategy>" (e.g.
	// "ec:proportional") — and is empty for inconclusive outcomes.  qcecd runs the pipeline, never the prover
	// race, so no other prover name appears here.
	DecidedBy      string          `json:"decided_by,omitempty"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`
	// Cancelled + CancelCause report a check stopped by its deadline, the
	// memory watchdog, a client disconnect, or a server drain.
	Cancelled   bool   `json:"cancelled,omitempty"`
	CancelCause string `json:"cancel_cause,omitempty"`
	// Error carries the typed failure of a VerdictError outcome.
	Error   string         `json:"error,omitempty"`
	Timings Timings        `json:"timings"`
	DD      *DDStats       `json:"dd,omitempty"`
	Mem     *WatchdogStats `json:"mem,omitempty"`
	// Cached marks a verdict served from the memoization cache (or, inside
	// a batch, deduplicated onto another item's execution) instead of a
	// fresh check; cached responses carry no DD or memory telemetry.
	Cached bool `json:"cached,omitempty"`
	// Attempts is the number of execution attempts the job took (present
	// only when > 1: the retry classifier re-ran a transient failure).
	Attempts int `json:"attempts,omitempty"`
}

// Job status wire strings.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
)

// JobResponse is the body of POST /v1/jobs (202) and GET /v1/jobs/{id}.
type JobResponse struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	// Result is present once Status is done.
	Result *CheckResponse `json:"result,omitempty"`
}

// Error codes of ErrorBody, stable for programmatic clients.
const (
	CodeBadRequest      = "bad_request"
	CodeBadQASM         = "bad_qasm"
	CodeBodyTooLarge    = "body_too_large"
	CodeCircuitTooLarge = "circuit_too_large"
	CodeQueueFull       = "queue_full"
	CodeDraining        = "draining"
	CodeNotFound        = "not_found"
	CodeBatchTooLarge   = "batch_too_large"
	CodeCancelled       = "cancelled"
	// CodeJobEvicted (410): the job id existed but its result aged out of
	// the bounded retention window — resubmit, don't keep polling.  Distinct
	// from CodeNotFound (404), which means the id was never issued here.
	CodeJobEvicted = "job_evicted"
	// CodeIdemConflict (409): the Idempotency-Key was already used for a
	// different question (different circuit pair or options).
	CodeIdemConflict = "idempotency_conflict"
	// CodeJournal (500): the durable journal could not persist the job, so
	// accepting it would silently drop the durability guarantee.
	CodeJournal = "journal_error"
)

// IdempotencyKeyHeader is the request header that opts a /v1/check or
// /v1/jobs submission into idempotent at-least-once semantics: resubmitting
// with the same key (same question) returns the original job — same id,
// same verdict — instead of new work, including across a daemon restart
// when the journal is enabled.
const IdempotencyKeyHeader = "Idempotency-Key"

// BatchRequest is the body of POST /v1/batch: up to Config.MaxBatchItems
// independent check requests answered in one round trip.
type BatchRequest struct {
	Items []CheckRequest `json:"items"`
}

// BatchItemResult is the outcome of one batch item: exactly one of Result
// and Error is set.  Invalid items (bad QASM, oversized circuit) fail
// item-locally with the same typed codes the single-check endpoint uses as
// HTTP statuses; they never fail the whole batch.
type BatchItemResult struct {
	Index  int            `json:"index"`
	Result *CheckResponse `json:"result,omitempty"`
	Error  *ErrorDetail   `json:"error,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch response.  Items are in
// request order.  Deduplicated reports how many items shared another item's
// fingerprint and were answered by its execution.
type BatchResponse struct {
	Items        []BatchItemResult `json:"items"`
	Checked      int               `json:"checked"`
	Deduplicated int               `json:"deduplicated"`
	CacheHits    int               `json:"cache_hits"`
	Failed       int               `json:"failed"`
}

// ErrorBody is the JSON shape of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the typed error payload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// wireVerdict maps a flow verdict to its wire string.
func wireVerdict(v core.Verdict) string {
	switch v {
	case core.Equivalent:
		return VerdictEquivalent
	case core.EquivalentUpToGlobalPhase:
		return VerdictEquivalentUpToPhas
	case core.NotEquivalent:
		return VerdictNotEquivalent
	default:
		return VerdictProbablyEquivalent
	}
}

// wireDD converts DD telemetry to its wire shape.
func wireDD(s dd.Stats) *DDStats {
	return &DDStats{
		GateHits:      s.GateHits,
		GateMisses:    s.GateMisses,
		ComputeHits:   s.CacheHits,
		ComputeMisses: s.CacheMisses,
		ApplyCalls:    s.ApplyCalls,
		ApplyHits:     s.ApplyHits,
		NodesCreated:  s.NodesCreated,
		GCRuns:        s.GCRuns,
		GCReclaimed:   s.GCReclaimed,
		PressureGCs:   s.PressureGCs,
	}
}

// wireMem converts watchdog counters to their wire shape (nil stays nil).
func wireMem(m *resource.Stats) *WatchdogStats {
	if m == nil {
		return nil
	}
	return &WatchdogStats{
		Samples:       m.Samples,
		SoftTrips:     m.SoftTrips,
		HardTrips:     m.HardTrips,
		PeakHeapBytes: m.PeakHeapBytes,
		PeakDDNodes:   m.PeakDDNodes,
	}
}
