package server

import (
	"container/list"
	"sync"

	"qcec/internal/ec"
	"qcec/internal/fingerprint"
)

// Verdict memoization.  Compiler CI re-verifies the same compiled artifact
// many times (every rebuild, every fan-out of the same pipeline), and a
// definitive verdict is a pure function of the question: the circuit pair,
// the checking strategy, the DD weight tolerance, and the phase convention.
// The cache keys on exactly those — see cacheKey — and stores only verdicts
// that cannot be invalidated by retrying:
//
//   - equivalent / equivalent_up_to_phase / not_equivalent are facts about
//     the pair and are safe to replay forever;
//   - probably_equivalent depends on how many stimuli the request bought
//     (options.r), errors and cancellations depend on load and limits, so
//     none of those are ever stored (and a later, luckier run can upgrade
//     the answer).
//
// Approximate checking (fidelity_threshold > 0) redefines what
// not_equivalent means per request, so those jobs bypass the cache entirely
// in both directions.

// cacheKey identifies a checking question.  Strategy is the scheme the wire
// name parses to (ec.ParseStrategy), so "" and "proportional", or the
// gate-cost aliases, share one entry — the strategy cannot change a correct
// checker's verdict, but it is part of the key so a strategy-specific bug
// can never poison answers for the default path.  Tolerance is in the key
// because it parameterizes the equivalence relation itself (what counts as
// "the same state"); upToPhase likewise.
type cacheKey struct {
	pair      fingerprint.Digest
	strategy  ec.Strategy
	tolerance float64
	upToPhase bool
}

// verdictCache is a bounded LRU over definitive check responses, safe for
// concurrent use.  Entries store a value copy of the response with the
// per-execution fields (job id, timings, DD/memory telemetry) already
// stripped; get returns a private copy so handlers can stamp their own job id
// without racing other readers.
type verdictCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[cacheKey]*list.Element
	evictions uint64
}

type cacheEntry struct {
	key cacheKey
	res CheckResponse
}

// newVerdictCache returns a cache bounded to capacity entries; nil (cache
// disabled) when capacity <= 0.
func newVerdictCache(capacity int) *verdictCache {
	if capacity <= 0 {
		return nil
	}
	return &verdictCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns a copy of the cached response for key, if any.
func (c *verdictCache) get(key cacheKey) (CheckResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return CheckResponse{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a response under key, evicting the least recently used entry
// when the cache is full.  The caller must pass a response that cacheable()
// accepted; put strips the per-execution fields before storing.
func (c *verdictCache) put(key cacheKey, res CheckResponse) {
	res.JobID = ""
	res.Timings = Timings{}
	res.DD = nil
	res.Mem = nil
	res.Attempts = 0
	res.Cached = true

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Two workers can race the same uncached question; either answer is
		// the same fact, so last-write-wins is fine.
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
}

// stats returns the current population and the eviction count.
func (c *verdictCache) stats() (size int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.evictions
}

// cacheable reports whether res is a definitive answer worth memoizing: a
// verdict that retrying could never change, from a job that ran to a clean
// completion.
func cacheable(res *CheckResponse) bool {
	if res.Cancelled || res.Error != "" {
		return false
	}
	switch res.Verdict {
	case VerdictEquivalent, VerdictEquivalentUpToPhas, VerdictNotEquivalent:
		return true
	default:
		return false
	}
}
