package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// POST /v1/batch: check up to MaxBatchItems circuit pairs in one request.
//
// A compilation flow verifies a whole pass pipeline at once — N pairs, many
// of them textually distinct encodings of the same question.  The batch
// endpoint answers all of them in one round trip:
//
//   - Per-item failure isolation: an invalid item (bad QASM, oversized
//     circuit) gets a typed item-local error; the rest of the batch runs.
//     The response is 200 unless the batch itself is malformed.
//   - Intra-batch deduplication: items whose pair fingerprint AND options
//     coincide are checked once; the duplicates reuse that execution's
//     result (marked "cached": true).
//   - Cache integration: each unique question consults the verdict cache
//     before being admitted, and definitive answers are inserted as usual.
//   - Backpressure instead of rejection: unique items are fed to the worker
//     queue with a blocking submit (submitWait), so a batch larger than the
//     queue trickles in as workers drain it rather than failing with 429.
//     Items are fed and collected concurrently to keep the workers busy.

// batchKey identifies a batch item's full question: the pair fingerprint
// plus every request option.  Dedup must be exact — two items differing in
// any option (r, seed, timeout, ...) can legitimately produce different
// responses, so only option-identical items share an execution.
type batchKey struct {
	ckey cacheKey
	opts CheckOptions
}

// handleBatch is POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failDecode(w, err)
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, `batch has no "items"`)
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.fail(w, http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			fmt.Sprintf("batch has %d items (limit %d)", len(req.Items), s.cfg.MaxBatchItems))
		return
	}

	resp := BatchResponse{Items: make([]BatchItemResult, len(req.Items))}
	leaders := make(map[batchKey]int, len(req.Items)) // question → first item index
	followerOf := make(map[int]int)                   // duplicate item → leader index
	jobs := make(map[int]*job)                        // leader item → its execution

	for i, item := range req.Items {
		resp.Items[i].Index = i
		j, apiErr := s.buildJob(item)
		if apiErr != nil {
			resp.Items[i].Error = &ErrorDetail{Code: apiErr.code, Message: apiErr.msg}
			resp.Failed++
			continue
		}
		bk := batchKey{ckey: j.ckey, opts: item.Options}
		if leader, dup := leaders[bk]; dup {
			followerOf[i] = leader
			resp.Deduplicated++
			j.cancel(nil)
			continue
		}
		leaders[bk] = i
		if res, hit := s.cachedResponse(j); hit {
			resp.Items[i].Result = res
			resp.CacheHits++
			s.finish(j, res, true)
			continue
		}
		jobs[i] = j
	}

	// Feed the unique jobs through the bounded queue with backpressure.  A
	// client disconnect (or server drain) stops feeding and cancels what is
	// already running; the per-job AfterFunc mirrors handleCheck.
	submitted := make([]int, 0, len(jobs))
	var submitErr *ErrorDetail
	for i := 0; i < len(req.Items) && submitErr == nil; i++ {
		j, ok := jobs[i]
		if !ok {
			continue
		}
		stop := context.AfterFunc(r.Context(), func() {
			j.cancel(context.Cause(r.Context()))
		})
		defer stop()
		if err := s.submitWait(r.Context(), j); err != nil {
			j.cancel(nil)
			delete(jobs, i)
			if errors.Is(err, errDraining) {
				submitErr = &ErrorDetail{Code: CodeDraining, Message: "server is shutting down"}
			} else {
				submitErr = &ErrorDetail{Code: CodeCancelled, Message: "batch abandoned: " + err.Error()}
			}
			resp.Items[i].Error = submitErr
			resp.Failed++
			break
		}
		submitted = append(submitted, i)
	}
	if submitErr != nil {
		// Items never submitted inherit the same typed error.
		for i, j := range jobs {
			if resp.Items[i].Error == nil && resp.Items[i].Result == nil {
				j.cancel(nil)
				resp.Items[i].Error = submitErr
				resp.Failed++
			}
		}
	}

	for _, i := range submitted {
		j := jobs[i]
		<-j.done
		resp.Items[i].Result = j.result
		resp.Checked++
	}

	// Duplicates reuse their leader's outcome, marked as served from
	// memoization; a leader that failed propagates its typed error.
	for i, leader := range followerOf {
		li := resp.Items[leader]
		switch {
		case li.Result != nil:
			dup := *li.Result
			dup.Cached = true
			dup.DD = nil
			dup.Mem = nil
			resp.Items[i].Result = &dup
		case li.Error != nil:
			resp.Items[i].Error = li.Error
			resp.Deduplicated--
			resp.Failed++
		}
	}

	s.metrics.batchRequest(len(req.Items), resp.Deduplicated, resp.Failed)
	writeJSON(w, http.StatusOK, resp)
}
