package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcec/internal/wal"
)

// The durable job journal.
//
// Every job accepted by POST /v1/jobs (and every /v1/check carrying an
// Idempotency-Key — those clients have announced they will retry) is logged
// as an append-only sequence of state transitions in a write-ahead journal
// under Config.JournalDir:
//
//	accepted  {job, fingerprint, idempotency key, full request}
//	started   {job, attempt}
//	retry     {job, attempt, error class}
//	finished  {job, final wire response}
//	aborted   {job}  — admission failed after the accepted record landed
//
// The contract is at-least-once execution with exactly-once results:
//
//   - A job id is only returned to a client after its accepted record is
//     fsynced (group-committed: concurrent appenders share one fsync), so a
//     crash can lose work the client was never promised, but never work it
//     was.
//   - Startup replay re-enqueues accepted-but-unfinished jobs and serves
//     already-finished verdicts from the journal through the verdict cache
//     and the async job table, so a client polling GET /v1/jobs/{id} or
//     retrying with its Idempotency-Key lands on the same job id and the
//     same verdict across a restart.  A finished job's cache key comes
//     from its journaled fingerprint and options: replay parses only the
//     circuits of the jobs it re-enqueues.
//   - Records are CRC-framed (internal/wal); a crash mid-append leaves a
//     torn tail that replay truncates before appending resumes.  Replay is
//     order-agnostic per job id — a worker's started record may legally hit
//     the disk before the handler's accepted record under concurrency.
//
// Only the accepted record blocks on durability; started/retry/finished
// appends are asynchronous (they ride along the next group commit).  Losing
// a finished record in a crash merely re-runs the job: checks are
// deterministic per seed, so the replayed verdict is the same.

// journalFile is the single journal segment inside Config.JournalDir.
const journalFile = "journal.wal"

// errJournalClosed is returned by append after Close (or a test crash).
var errJournalClosed = errors.New("server: journal closed")

// journalRecord is the JSON payload inside one WAL frame.
type journalRecord struct {
	// Type is the transition: accepted|started|retry|finished|aborted.
	Type string `json:"type"`
	// Job is the job id the transition belongs to.
	Job string `json:"job"`
	// FP is the pair fingerprint in hex (accepted and finished records).
	FP string `json:"fp,omitempty"`
	// Key is the client-supplied Idempotency-Key, when any.
	Key string `json:"key,omitempty"`
	// At is the transition time in unix milliseconds (diagnostic only —
	// replay semantics never depend on clocks).
	At int64 `json:"at,omitempty"`
	// Attempt is the 1-based execution attempt (started and retry records).
	Attempt int `json:"attempt,omitempty"`
	// Class is the transient-error class that triggered a retry record.
	Class string `json:"class,omitempty"`
	// Req is the full check request (accepted records), enough to re-run
	// the job after a restart.
	Req *CheckRequest `json:"req,omitempty"`
	// Res is the final wire response (finished records).
	Res *CheckResponse `json:"res,omitempty"`
}

// journalStats is a point-in-time snapshot for /metrics.
type journalStats struct {
	Appends      uint64 // records appended this process lifetime
	AppendErrors uint64 // appends that failed to reach the file
	Syncs        uint64 // fsync group commits
	Replayed     uint64 // records replayed at startup
	Recovered    uint64 // finished jobs served from the journal at startup
	Requeued     uint64 // unfinished jobs re-enqueued at startup
	TornTails    uint64 // 1 when startup truncated a damaged tail
	Skipped      uint64 // CRC-valid records with undecodable payloads
}

// journal is the append side: one writer file, group-committed fsyncs.
type journal struct {
	mu sync.Mutex // serializes file writes and close
	f  *os.File

	appends      atomic.Uint64
	appendErrors atomic.Uint64
	syncs        atomic.Uint64

	// Startup-replay counters, written once before the server serves.
	replayed  uint64
	recovered uint64
	requeued  uint64
	tornTails uint64
	skipped   uint64

	// Group commit: durable appenders park a waiter channel and kick the
	// sync loop; one fsync answers every waiter that arrived before it.
	waitMu  sync.Mutex
	waiters []chan error
	kick    chan struct{}
	closeCh chan struct{}
	doneCh  chan struct{}
}

// replayJob is one job's merged journal state after replay.
type replayJob struct {
	id       string
	req      *CheckRequest
	idemKey  string
	fp       string
	attempts int            // started records seen
	result   *CheckResponse // non-nil once finished
	aborted  bool
}

// replayState is everything startup recovery needs from the journal.
type replayState struct {
	jobs  map[string]*replayJob
	order []string          // accepted/first-seen order
	maxID uint64            // largest numeric job-id suffix seen
	keys  map[string]string // Idempotency-Key → the last job that claimed it
}

// openJournal replays dir's journal (creating it when absent), truncates a
// torn tail, and returns the append handle positioned at the end together
// with the replayed state.
func openJournal(dir string) (*journal, *replayState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal open: %w", err)
	}

	jl := &journal{
		f:       f,
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	st := &replayState{jobs: make(map[string]*replayJob), keys: make(map[string]string)}

	sc := wal.NewScanner(f)
	for sc.Scan() {
		jl.replayed++
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Job == "" {
			jl.skipped++ // CRC-valid but undecodable: writer-version skew, not a torn tail
			continue
		}
		st.apply(rec)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal replay: %w", err)
	}
	if sc.Torn() {
		jl.tornTails = 1
		if err := f.Truncate(sc.Offset()); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(sc.Offset(), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal seek: %w", err)
	}

	go jl.syncLoop()
	return jl, st, nil
}

// apply merges one record into the replay state.  Per-job merging is
// order-agnostic: any field may arrive before or after any other.  Across
// jobs, accepted records land in the order their jobs claimed their keys,
// so a key belongs to the last job whose accepted record carries it: a job
// claims a key only once the previous holder was evicted or aborted.
func (st *replayState) apply(rec journalRecord) {
	rj := st.jobs[rec.Job]
	if rj == nil {
		rj = &replayJob{id: rec.Job}
		st.jobs[rec.Job] = rj
		st.order = append(st.order, rec.Job)
		if n, ok := parseJobID(rec.Job); ok && n > st.maxID {
			st.maxID = n
		}
	}
	switch rec.Type {
	case recAccepted:
		rj.req = rec.Req
		if rec.Key != "" {
			if prev := st.jobs[st.keys[rec.Key]]; prev != nil {
				prev.idemKey = ""
			}
			st.keys[rec.Key] = rec.Job
			rj.idemKey = rec.Key
		}
		if rec.FP != "" {
			rj.fp = rec.FP
		}
	case recStarted:
		if rec.Attempt > rj.attempts {
			rj.attempts = rec.Attempt
		}
	case recFinished:
		rj.result = rec.Res
		if rec.FP != "" && rj.fp == "" {
			rj.fp = rec.FP
		}
	case recAborted:
		rj.aborted = true
	}
}

// Record type tags.
const (
	recAccepted = "accepted"
	recStarted  = "started"
	recRetry    = "retry"
	recFinished = "finished"
	recAborted  = "aborted"
)

// parseJobID extracts the numeric suffix of a "j%08d" job id.
func parseJobID(id string) (uint64, bool) {
	num, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// append writes one record.  When durable is true it returns only after the
// record is fsynced; concurrent durable appenders share a single group
// commit.  Asynchronous appends still kick the sync loop, so nothing stays
// unsynced longer than one loop iteration under any traffic.
func (jl *journal) append(rec journalRecord, durable bool) error {
	rec.At = time.Now().UnixMilli()
	payload, err := json.Marshal(rec)
	if err != nil {
		jl.appendErrors.Add(1)
		return err
	}
	frame := wal.EncodeRecord(nil, payload)

	jl.mu.Lock()
	if jl.f == nil {
		jl.mu.Unlock()
		jl.appendErrors.Add(1)
		return errJournalClosed
	}
	_, werr := jl.f.Write(frame)
	jl.mu.Unlock()
	if werr != nil {
		jl.appendErrors.Add(1)
		return werr
	}
	jl.appends.Add(1)

	if !durable {
		jl.kickSync()
		return nil
	}
	ch := make(chan error, 1)
	jl.waitMu.Lock()
	jl.waiters = append(jl.waiters, ch)
	jl.waitMu.Unlock()
	jl.kickSync()
	return <-ch
}

func (jl *journal) kickSync() {
	select {
	case jl.kick <- struct{}{}:
	default: // a sync is already pending; it will cover this append
	}
}

// syncLoop is the group-commit goroutine: every kick becomes at most one
// fsync answering all waiters that arrived before it.
func (jl *journal) syncLoop() {
	defer close(jl.doneCh)
	for {
		select {
		case <-jl.kick:
		case <-jl.closeCh:
			jl.settle(jl.syncOnce())
			return
		}
		jl.settle(jl.syncOnce())
	}
}

// syncOnce fsyncs the file (nil error when already closed: close syncs).
func (jl *journal) syncOnce() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return errJournalClosed
	}
	err := jl.f.Sync()
	jl.syncs.Add(1)
	return err
}

// settle delivers one commit outcome to every parked waiter.
func (jl *journal) settle(err error) {
	jl.waitMu.Lock()
	ws := jl.waiters
	jl.waiters = nil
	jl.waitMu.Unlock()
	for _, ch := range ws {
		ch <- err
	}
}

// close syncs and closes the journal; append fails afterwards.  Idempotent.
func (jl *journal) close() {
	jl.mu.Lock()
	if jl.f != nil {
		_ = jl.f.Sync()
		_ = jl.f.Close()
		jl.f = nil
	}
	jl.mu.Unlock()
	select {
	case <-jl.closeCh:
	default:
		close(jl.closeCh)
	}
	<-jl.doneCh
}

// crash abandons the journal without syncing pending asynchronous appends —
// the in-process stand-in for SIGKILL used by the recovery chaos tests.
func (jl *journal) crash() {
	jl.close()
}

// The server-side append helpers below are safe no-ops for jobs outside the
// durability contract (journal disabled, or an untracked job: a keyless
// /v1/check or a batch item).

// journalAccepted logs a job's acceptance together with everything needed to
// re-run it.  durable=true blocks until the record is fsynced — callers must
// not promise the job id to a client before this returns.
func (s *Server) journalAccepted(j *job, durable bool) error {
	if !j.tracked || s.journal == nil {
		return nil
	}
	req := j.req
	err := s.journal.append(journalRecord{
		Type: recAccepted,
		Job:  j.id,
		FP:   j.ckey.pair.String(),
		Key:  j.idemKey,
		Req:  &req,
	}, durable)
	if err != nil {
		s.log.Error("journal append failed", "type", recAccepted, "job", j.id, "err", err)
	}
	return err
}

// journalAborted logs that an accepted job was rejected at admission; replay
// will not resurrect it.
func (s *Server) journalAborted(j *job) {
	if !j.tracked || s.journal == nil {
		return
	}
	_ = s.journal.append(journalRecord{Type: recAborted, Job: j.id}, false)
}

// journalStarted logs the start of execution attempt n (1-based).
func (s *Server) journalStarted(j *job, attempt int) {
	if !j.tracked || s.journal == nil {
		return
	}
	_ = s.journal.append(journalRecord{Type: recStarted, Job: j.id, Attempt: attempt}, false)
}

// journalRetry logs a transient failure about to be re-run.
func (s *Server) journalRetry(j *job, attempt int, class string) {
	if !j.tracked || s.journal == nil {
		return
	}
	_ = s.journal.append(journalRecord{Type: recRetry, Job: j.id, Attempt: attempt, Class: class}, false)
}

// journalFinished logs a job's final verdict.  Asynchronous: losing it in a
// crash merely re-runs a deterministic check on replay.
func (s *Server) journalFinished(j *job, res *CheckResponse) {
	if !j.tracked || s.journal == nil {
		return
	}
	s.journal.append(journalRecord{
		Type: recFinished,
		Job:  j.id,
		FP:   j.ckey.pair.String(),
		Res:  res,
	}, false)
}

// stats snapshots the journal counters for /metrics.
func (jl *journal) stats() journalStats {
	return journalStats{
		Appends:      jl.appends.Load(),
		AppendErrors: jl.appendErrors.Load(),
		Syncs:        jl.syncs.Load(),
		Replayed:     jl.replayed,
		Recovered:    jl.recovered,
		Requeued:     jl.requeued,
		TornTails:    jl.tornTails,
		Skipped:      jl.skipped,
	}
}
