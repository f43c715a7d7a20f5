package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"qcec/internal/ec"
	"qcec/internal/fingerprint"
)

func mkKey(b byte) cacheKey {
	var d fingerprint.Digest
	d[0] = b
	return cacheKey{pair: d, strategy: "proportional", tolerance: 1e-10}
}

func defres(verdict string) CheckResponse {
	return CheckResponse{JobID: "jX", Verdict: verdict, NumSims: 3}
}

func TestVerdictCacheLRUEviction(t *testing.T) {
	c := newVerdictCache(2)
	c.put(mkKey(1), defres(VerdictEquivalent))
	c.put(mkKey(2), defres(VerdictEquivalent))
	if _, ok := c.get(mkKey(1)); !ok {
		t.Fatalf("key 1 missing before capacity reached")
	}
	// Key 1 is now most recently used; inserting key 3 must evict key 2.
	c.put(mkKey(3), defres(VerdictNotEquivalent))
	if _, ok := c.get(mkKey(2)); ok {
		t.Errorf("LRU evicted the wrong entry (2 survived)")
	}
	if _, ok := c.get(mkKey(1)); !ok {
		t.Errorf("recently-used entry 1 was evicted")
	}
	if _, ok := c.get(mkKey(3)); !ok {
		t.Errorf("newest entry 3 missing")
	}
	if size, evictions := c.stats(); size != 2 || evictions != 1 {
		t.Errorf("stats = (%d, %d), want (2, 1)", size, evictions)
	}
}

func TestVerdictCacheStripsExecutionFields(t *testing.T) {
	c := newVerdictCache(4)
	res := defres(VerdictEquivalent)
	res.DD = &DDStats{ApplyCalls: 99}
	res.Mem = &WatchdogStats{Samples: 5}
	res.Timings = Timings{TotalMS: 123}
	c.put(mkKey(1), res)
	got, ok := c.get(mkKey(1))
	if !ok {
		t.Fatal("entry missing")
	}
	if !got.Cached {
		t.Errorf("cached copy not marked Cached")
	}
	if got.DD != nil || got.Mem != nil || got.Timings.TotalMS != 0 || got.JobID != "" {
		t.Errorf("per-execution fields survived caching: %+v", got)
	}
	if got.Verdict != VerdictEquivalent || got.NumSims != 3 {
		t.Errorf("verdict payload lost: %+v", got)
	}
}

func TestCacheableRejectsNonDefinitive(t *testing.T) {
	cases := map[string]CheckResponse{
		"probably_equivalent": {Verdict: VerdictProbablyEquivalent},
		"error":               {Verdict: VerdictError, Error: "boom"},
		"cancelled":           {Verdict: VerdictProbablyEquivalent, Cancelled: true},
		"cancelled definitive": {
			Verdict: VerdictEquivalent, Cancelled: true, CancelCause: "drain",
		},
		"error with verdict": {Verdict: VerdictEquivalent, Error: "late fault"},
	}
	for name, res := range cases {
		if cacheable(&res) {
			t.Errorf("%s: cacheable = true, want false", name)
		}
	}
	for _, v := range []string{VerdictEquivalent, VerdictEquivalentUpToPhas, VerdictNotEquivalent} {
		res := CheckResponse{Verdict: v}
		if !cacheable(&res) {
			t.Errorf("%s: cacheable = false, want true", v)
		}
	}
}

// TestVerdictCacheConcurrent runs mixed get/put traffic; under -race
// (RACE_PKGS covers internal/server) this is the LRU race test.
func TestVerdictCacheConcurrent(t *testing.T) {
	c := newVerdictCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := mkKey(byte((g + i) % 16))
				if i%3 == 0 {
					c.put(k, defres(VerdictEquivalent))
				} else {
					c.get(k)
				}
				if i%17 == 0 {
					c.stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if size, _ := c.stats(); size > 8 {
		t.Errorf("cache grew past its bound: %d", size)
	}
}

// TestCheckCachedRepeat drives the full HTTP path: a repeated identical
// check must be answered from the cache, marked cached, with the hit counter
// incremented — and a cosmetically different encoding of the same pair
// (whitespace, gate-name alias) must hit too.
func TestCheckCachedRepeat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	res1 := doCheck(t, ts.URL, checkBody(bellQASM, bellQASM))
	if res1.Cached {
		t.Fatalf("first check claims cached")
	}
	res2 := doCheck(t, ts.URL, checkBody(bellQASM, bellQASM))
	if !res2.Cached {
		t.Fatalf("identical repeat not served from cache")
	}
	if res2.Verdict != res1.Verdict || res2.DD != nil {
		t.Errorf("cached response wrong shape: %+v", res2)
	}
	if res2.JobID == res1.JobID || res2.JobID == "" {
		t.Errorf("cached response must carry its own job id (got %q after %q)", res2.JobID, res1.JobID)
	}

	// Alias + whitespace variant of the same question.
	aliased := strings.ReplaceAll(bellQASM, "cx q[0],q[1];", "cnot q[0] , q[1];")
	res3 := doCheck(t, ts.URL, checkBody(aliased, bellQASM))
	if !res3.Cached {
		t.Errorf("alias/whitespace variant missed the cache")
	}

	// A different strategy is a different key: no false sharing.
	body, _ := json.Marshal(CheckRequest{G: bellQASM, Gp: bellQASM,
		Options: CheckOptions{Strategy: "sequential"}})
	res4 := doCheck(t, ts.URL, string(body))
	if res4.Cached {
		t.Errorf("different strategy served from the default strategy's entry")
	}

	metricsText := getMetrics(t, ts.URL)
	assertMetric(t, metricsText, "qcecd_cache_hits_total", 2)
	assertMetric(t, metricsText, "qcecd_cache_misses_total", 2)
}

// TestProbablyEquivalentNotCached: a non-definitive verdict must not be
// memoized — a later run (more stimuli, complete routine enabled) may know
// better.
func TestProbablyEquivalentNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(CheckRequest{G: ghzQASM(4), Gp: ghzQASM(4),
		Options: CheckOptions{SimOnly: true, R: 2}})
	res1 := doCheck(t, ts.URL, string(body))
	if res1.Verdict != VerdictProbablyEquivalent {
		t.Fatalf("verdict = %q, want probably_equivalent", res1.Verdict)
	}
	res2 := doCheck(t, ts.URL, string(body))
	if res2.Cached {
		t.Errorf("probably_equivalent was served from cache")
	}
}

func doCheck(t *testing.T, baseURL, body string) CheckResponse {
	t.Helper()
	resp, data := postJSON(t, baseURL+"/v1/check", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; body %s", resp.StatusCode, data)
	}
	var res CheckResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return res
}

func getMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(data)
}

func assertMetric(t *testing.T, text, name string, want int) {
	t.Helper()
	line := fmt.Sprintf("%s %d\n", name, want)
	if !strings.Contains(text, line) {
		t.Errorf("metrics missing %q", strings.TrimSpace(line))
	}
}

// TestGateCostAliasesShareCacheKey: every wire spelling of the gate-cost
// strategy must parse to the same scheme and normalize to one cache-key
// string, so aliases cannot split the cache; the same holds for every
// alias ec.ParseStrategy accepts.
func TestGateCostAliasesShareCacheKey(t *testing.T) {
	aliases := []string{"gate_cost", "gate-cost", "gatecost", "compilation_flow"}
	for _, a := range aliases {
		strat, err := ec.ParseStrategy(a)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", a, err)
		}
		if strat != ec.StrategyGateCost {
			t.Errorf("ParseStrategy(%q) = %v, want StrategyGateCost", a, strat)
		}
		if got := normalizeStrategy(a); got != "gate_cost" {
			t.Errorf("normalizeStrategy(%q) = %q, want %q", a, got, "gate_cost")
		}
	}
	if got := normalizeStrategy(""); got != "proportional" {
		t.Errorf("normalizeStrategy(\"\") = %q, want proportional", got)
	}
	key := map[ec.Strategy]string{}
	for _, a := range append(aliases, "", "proportional", "construction", "sequential", "lookahead", "stabilizer") {
		strat, err := ec.ParseStrategy(a)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", a, err)
		}
		if k, seen := key[strat]; seen && k != normalizeStrategy(a) {
			t.Errorf("%v has two cache-key spellings: %q and %q", strat, k, normalizeStrategy(a))
		}
		key[strat] = normalizeStrategy(a)
	}
	if _, err := ec.ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted an unknown strategy")
	}
}
