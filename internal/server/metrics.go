package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"qcec/internal/dd"
	"qcec/internal/resource"
)

// metrics is the server's aggregate telemetry, exposed at GET /metrics in
// the Prometheus text exposition format.  It is hand-rolled on purpose: the
// repo is stdlib-only, and the handful of counters and two histograms the
// daemon needs do not justify a client library.
type metrics struct {
	mu sync.Mutex

	submitted uint64
	completed uint64
	verdicts  map[string]uint64 // by wire verdict string
	wins      map[string]uint64 // definitive verdicts by deciding stage/prover
	rejected  map[string]uint64 // by rejection reason (queue_full, draining, ...)
	badReqs   uint64            // 4xx request failures (parse, size, QASM)
	panics    uint64            // recovered job panics
	cancelled uint64            // jobs stopped by deadline/disconnect/drain
	memTrips  uint64            // jobs stopped by the memory watchdog

	cacheHits   uint64 // verdicts served from the memoization cache
	cacheMisses uint64 // cache lookups that fell through to a real check

	retries       map[string]uint64 // transient re-runs by error class
	idemHits      uint64            // requests attached to an existing job by Idempotency-Key
	idemConflicts uint64            // keys reused for a different question (409)
	evictedJobs   uint64            // finished jobs aged out of retention

	batches     uint64 // POST /v1/batch requests accepted
	batchItems  uint64 // items across all accepted batches
	batchDedup  uint64 // items answered by another item's execution
	batchFailed uint64 // items that failed with an item-local typed error

	checkSeconds histogram // end-to-end check duration (excl. queueing)
	queueSeconds histogram // admission → worker pickup

	dd  dd.Stats       // summed across all finished jobs
	mem resource.Stats // folded watchdog counters (sums + worst peaks)
}

// histogram is a fixed-bucket cumulative histogram in seconds, matching the
// Prometheus convention (le-labelled cumulative buckets plus sum and count).
type histogram struct {
	buckets [len(bucketBounds)]uint64
	sum     float64
	count   uint64
}

// bucketBounds spans sub-millisecond trivial pairs to the server's maximum
// timeout; everything above falls into +Inf.
var bucketBounds = [...]float64{
	0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60,
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	h.sum += s
	h.count++
	for i, b := range bucketBounds {
		if s <= b {
			h.buckets[i]++
		}
	}
}

func newMetrics() *metrics {
	return &metrics{
		verdicts: make(map[string]uint64),
		wins:     make(map[string]uint64),
		rejected: make(map[string]uint64),
		retries:  make(map[string]uint64),
	}
}

func (m *metrics) jobRetry(class string) {
	m.mu.Lock()
	m.retries[class]++
	m.mu.Unlock()
}

func (m *metrics) idemHit() {
	m.mu.Lock()
	m.idemHits++
	m.mu.Unlock()
}

func (m *metrics) idemConflict() {
	m.mu.Lock()
	m.idemConflicts++
	m.mu.Unlock()
}

func (m *metrics) evictedJob() {
	// jobsMu is held by the caller; the metrics mutex is independent.
	m.mu.Lock()
	m.evictedJobs++
	m.mu.Unlock()
}

func (m *metrics) submittedJob() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

func (m *metrics) rejectedJob(reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

func (m *metrics) badRequest() {
	m.mu.Lock()
	m.badReqs++
	m.mu.Unlock()
}

func (m *metrics) cacheHit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

func (m *metrics) cacheMiss() {
	m.mu.Lock()
	m.cacheMisses++
	m.mu.Unlock()
}

func (m *metrics) batchRequest(items, dedup, failed int) {
	m.mu.Lock()
	m.batches++
	m.batchItems += uint64(items)
	m.batchDedup += uint64(dedup)
	m.batchFailed += uint64(failed)
	m.mu.Unlock()
}

// finishedJob folds one completed job into the aggregates.
func (m *metrics) finishedJob(res *CheckResponse, queued, ran time.Duration, ddStats dd.Stats, mem *resource.Stats, panicked bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.verdicts[res.Verdict]++
	if res.DecidedBy != "" {
		m.wins[res.DecidedBy]++
	}
	if panicked {
		m.panics++
	}
	if res.Cancelled {
		m.cancelled++
	}
	m.checkSeconds.observe(ran)
	m.queueSeconds.observe(queued)
	m.dd.Add(ddStats)
	if mem != nil {
		m.mem.Add(*mem)
		if mem.HardTrips > 0 {
			m.memTrips++
		}
	}
}

// write emits the exposition text.  The caller supplies the live gauges and
// externally-owned counters the registry does not track itself (queue
// occupancy, in-flight workers, drain state, verdict-cache population and
// evictions, DD-pool activity).
func (m *metrics) write(w io.Writer, queueDepth, queueCap, inflight, workers int, draining bool,
	cacheSize int, cacheEvictions uint64, pool dd.PoolStats, journalOn bool, js journalStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	gauge("qcecd_queue_depth", "Admitted jobs waiting for a worker.", queueDepth)
	gauge("qcecd_queue_capacity", "Queue depth at which admission rejects.", queueCap)
	gauge("qcecd_inflight_checks", "Checks currently executing.", inflight)
	gauge("qcecd_workers", "Configured worker-pool size.", workers)
	d := 0
	if draining {
		d = 1
	}
	gauge("qcecd_draining", "1 while the server drains for shutdown.", d)

	counter("qcecd_jobs_submitted_total", "Jobs admitted to the queue.", m.submitted)
	counter("qcecd_jobs_completed_total", "Jobs finished (any verdict).", m.completed)

	fmt.Fprintf(w, "# HELP qcecd_checks_total Completed checks by verdict.\n# TYPE qcecd_checks_total counter\n")
	for _, v := range sortedKeys(m.verdicts) {
		fmt.Fprintf(w, "qcecd_checks_total{verdict=%q} %d\n", v, m.verdicts[v])
	}
	fmt.Fprintf(w, "# HELP qcecd_wins_total Definitive verdicts by the flow stage or prover that decided them.\n# TYPE qcecd_wins_total counter\n")
	for _, p := range sortedKeys(m.wins) {
		fmt.Fprintf(w, "qcecd_wins_total{prover=%q} %d\n", p, m.wins[p])
	}
	fmt.Fprintf(w, "# HELP qcecd_rejected_total Requests rejected at admission by reason.\n# TYPE qcecd_rejected_total counter\n")
	for _, r := range sortedKeys(m.rejected) {
		fmt.Fprintf(w, "qcecd_rejected_total{reason=%q} %d\n", r, m.rejected[r])
	}

	counter("qcecd_cache_hits_total", "Checks answered from the verdict cache.", m.cacheHits)
	counter("qcecd_cache_misses_total", "Cache lookups that required a real check.", m.cacheMisses)
	counter("qcecd_cache_evictions_total", "Verdicts evicted by the LRU bound.", cacheEvictions)
	gauge("qcecd_cache_size", "Verdicts currently cached.", cacheSize)

	counter("qcecd_batches_total", "Batch requests accepted.", m.batches)
	counter("qcecd_batch_items_total", "Items across all accepted batches.", m.batchItems)
	counter("qcecd_batch_dedup_total", "Batch items answered by another item's execution.", m.batchDedup)
	counter("qcecd_batch_item_errors_total", "Batch items failed with an item-local error.", m.batchFailed)

	counter("qcecd_dd_pool_gets_total", "DD packages handed to jobs.", pool.Gets)
	counter("qcecd_dd_pool_reuses_total", "Of those, warm packages served from the pool.", pool.Reuses)
	counter("qcecd_dd_pool_discards_total", "Returned packages dropped by the per-bucket bound or for outgrowing the pool's size bounds.", pool.Discards)
	counter("qcecd_dd_pool_forgotten_total", "Suspect packages dropped after recovered panics.", pool.Forgotten)
	gauge("qcecd_dd_pool_idle", "Warm packages currently pooled.", pool.Idle)

	counter("qcecd_bad_requests_total", "Requests failed before admission (parse, size, QASM).", m.badReqs)
	counter("qcecd_panics_recovered_total", "Job panics recovered by worker isolation.", m.panics)
	counter("qcecd_jobs_cancelled_total", "Jobs stopped by deadline, disconnect or drain.", m.cancelled)
	counter("qcecd_mem_limit_stops_total", "Jobs stopped by the memory watchdog's hard limit.", m.memTrips)

	fmt.Fprintf(w, "# HELP qcecd_job_retries_total Transient job failures re-run under a degraded budget, by error class.\n# TYPE qcecd_job_retries_total counter\n")
	for _, c := range sortedKeys(m.retries) {
		fmt.Fprintf(w, "qcecd_job_retries_total{class=%q} %d\n", c, m.retries[c])
	}
	counter("qcecd_idempotent_hits_total", "Requests attached to an existing job via Idempotency-Key.", m.idemHits)
	counter("qcecd_idempotency_conflicts_total", "Idempotency-Key reuses for a different question (409).", m.idemConflicts)
	counter("qcecd_jobs_evicted_total", "Finished jobs aged out of the retention window.", m.evictedJobs)

	if journalOn {
		counter("qcecd_journal_appends_total", "Records appended to the job journal.", js.Appends)
		counter("qcecd_journal_append_errors_total", "Journal appends that failed to reach the file.", js.AppendErrors)
		counter("qcecd_journal_syncs_total", "Journal group-commit fsyncs.", js.Syncs)
		counter("qcecd_journal_replayed_records", "Journal records replayed at the last startup.", js.Replayed)
		counter("qcecd_journal_recovered_jobs", "Finished jobs served from the journal at the last startup.", js.Recovered)
		counter("qcecd_journal_requeued_jobs", "Unfinished jobs re-enqueued at the last startup.", js.Requeued)
		counter("qcecd_journal_torn_tails", "1 when the last startup truncated a damaged journal tail.", js.TornTails)
		counter("qcecd_journal_skipped_records", "CRC-valid journal records with undecodable payloads.", js.Skipped)
	}

	writeHistogram(w, "qcecd_check_duration_seconds", "End-to-end check duration, excluding queueing.", &m.checkSeconds)
	writeHistogram(w, "qcecd_queue_wait_seconds", "Time between admission and worker pickup.", &m.queueSeconds)

	// DD-engine aggregates across all finished jobs.
	counter("qcecd_dd_gate_cache_hits_total", "GateDD calls answered by the gate registry.", m.dd.GateHits)
	counter("qcecd_dd_gate_cache_misses_total", "GateDD calls that built the gate DD.", m.dd.GateMisses)
	counter("qcecd_dd_compute_hits_total", "Compute-table hits.", m.dd.CacheHits)
	counter("qcecd_dd_compute_misses_total", "Compute-table misses.", m.dd.CacheMisses)
	counter("qcecd_dd_apply_calls_total", "Direct-kernel gate applications.", m.dd.ApplyCalls)
	counter("qcecd_dd_nodes_created_total", "DD nodes created.", m.dd.NodesCreated)
	counter("qcecd_dd_gc_runs_total", "DD garbage collections.", m.dd.GCRuns)
	counter("qcecd_dd_gc_reclaimed_total", "DD nodes reclaimed by collections.", m.dd.GCReclaimed)
	counter("qcecd_dd_pressure_gcs_total", "DD collections forced by memory pressure.", m.dd.PressureGCs)

	// Watchdog aggregates: trip counters sum; peaks are the worst single job.
	counter("qcecd_watchdog_soft_trips_total", "Memory watchdog soft-limit responses.", m.mem.SoftTrips)
	counter("qcecd_watchdog_hard_trips_total", "Memory watchdog hard-limit cancellations.", m.mem.HardTrips)
	gauge("qcecd_watchdog_peak_heap_bytes", "Largest per-job sampled heap.", m.mem.PeakHeapBytes)
	gauge("qcecd_watchdog_peak_dd_nodes", "Largest per-job sampled DD occupancy.", m.mem.PeakDDNodes)
}

func writeHistogram(w io.Writer, name, help string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	// observe() increments every bucket the sample fits in, so the stored
	// counts are already cumulative, as the exposition format requires.
	for i, b := range bucketBounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), h.buckets[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

func sortedKeys(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
