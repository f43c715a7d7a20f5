package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/core"
	"qcec/internal/ec"
	"qcec/internal/fingerprint"
	"qcec/internal/server"
	"qcec/internal/wal"
)

// tracedPerSecond is how many requests per second of --seconds a traced run
// sends.  The count is fixed rather than timed, so two traced runs under one
// seed send the same requests and their counters can be compared exactly.
var tracedPerSecond = map[string]int{"ci-verify": 2, "ci-rerun": 20, "clifford-sim": 4}

// passLimit bounds each of a traced run's two passes.
const passLimit = 70 * time.Second

// serverTimeout is qcecd's default per-check deadline, which its option
// translation hands to both flow stages.
const serverTimeout = 30 * time.Second

// A span is one timed interval of a traced request.  Start is relative to
// the request's root span; spans of one request share Req.
type span struct {
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
	// Source is client (the HTTP round trip), server (the response's
	// timings) or replay (the benchmark's own call into the layer).
	Source string `json:"source"`
}

// tracer replays each answered request's layers in-process and keeps the
// spans and per-layer sums of a traced pass.
type tracer struct {
	w     *workload
	walF  *os.File
	spans []span
	sum   map[string]float64
}

func (t *tracer) add(name string, v float64) { t.sum[name] += v }

// timed runs f as a replay span of request req and returns its duration.
func (t *tracer) timed(req int, root time.Time, name string, f func()) float64 {
	start := time.Now()
	f()
	d := ms(time.Since(start))
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: "http.check", Start: ms(start.Sub(root)), Dur: d, Source: "replay"})
	return d
}

// after records request pos's spans and replays its layers: decode, parse
// and fingerprint always; for a request the daemon executed, the journal
// append (on the journaling workload), the simulation stage (core.Check without the complete routine)
// and, when simulation did not decide, ec.Check under qcecd's option
// translation; finally the response encoding.
func (t *tracer) after(pos int, s *sample) {
	if s.err != nil {
		return
	}
	b := t.w.bodies[s.body]
	lat := ms(s.latency)
	t.spans = append(t.spans, span{Req: pos, Name: "http.check", Dur: lat, Source: "client"})
	// A cached answer carries the timings of the execution that produced it.
	executed := !s.resp.Cached
	var tm server.Timings
	if executed {
		tm = s.resp.Timings
		t.spans = append(t.spans,
			span{Req: pos, Name: "server.queue", Parent: "http.check", Dur: tm.QueueMS, Source: "server"},
			span{Req: pos, Name: "server.total", Parent: "http.check", Start: tm.QueueMS, Dur: tm.TotalMS, Source: "server"},
			span{Req: pos, Name: "core.sim", Parent: "server.total", Start: tm.QueueMS, Dur: tm.SimMS, Source: "server"},
			span{Req: pos, Name: "core.ec", Parent: "server.total", Start: tm.QueueMS + tm.SimMS, Dur: tm.ECMS, Source: "server"})
	}

	replayStart := time.Now()
	var req server.CheckRequest
	var err error
	decode := t.timed(pos, s.start, "server.decode", func() { err = json.Unmarshal(b.data, &req) })
	if err != nil {
		s.err = fmt.Errorf("replay decode: %w", err)
		return
	}
	var g1, g2 *circuit.Circuit
	parse := t.timed(pos, s.start, "qasm.parse", func() { g1, g2, err = parsePair(req.G, req.Gp) })
	if err != nil {
		s.err = fmt.Errorf("replay parse: %w", err)
		return
	}
	fp := t.timed(pos, s.start, "fingerprint.pair", func() { fingerprint.Pair(g1, g2) })
	accounted := decode + parse + fp
	if executed {
		// A journaling daemon fsyncs a new request before it answers.
		if t.w.journal {
			appendMS := t.timed(pos, s.start, "wal.append_sync", func() {
				if _, err = wal.AppendRecord(t.walF, b.data); err == nil {
					err = t.walF.Sync()
				}
			})
			if err != nil {
				s.err = fmt.Errorf("replay journal append: %w", err)
				return
			}
			t.add("wal.appends", 1)
			t.add("wal.ms", appendMS)
			accounted += appendMS
		}
		if err := t.replayFlow(pos, s.start, g1, g2, b.truth); err != nil {
			s.err = err
			return
		}
		t.add("executed", 1)
		t.add("queue", tm.QueueMS)
		t.add("sim", tm.SimMS)
		t.add("ec", tm.ECMS)
		t.add("core_other", tm.TotalMS-tm.SimMS-tm.ECMS)
		t.add("num_sims", float64(s.resp.NumSims))
		if dd := s.resp.DD; dd != nil {
			t.add("dd.nodes", float64(dd.NodesCreated))
			t.add("dd.apply_calls", float64(dd.ApplyCalls))
			t.add("dd.compute_hits", float64(dd.ComputeHits))
			t.add("dd.compute_lookups", float64(dd.ComputeHits+dd.ComputeMisses))
			t.add("dd.gate_hits", float64(dd.GateHits))
			t.add("dd.gate_lookups", float64(dd.GateHits+dd.GateMisses))
		}
		accounted += tm.QueueMS + tm.TotalMS
	}
	var out []byte
	respond := t.timed(pos, s.start, "server.respond", func() { out, err = json.Marshal(s.resp) })
	if err != nil || len(out) == 0 {
		s.err = fmt.Errorf("replay respond: %v", err)
		return
	}
	accounted += respond
	t.add("requests", 1)
	t.add("latency", lat)
	t.add("decode", decode)
	t.add("parse", parse)
	t.add("parse_gates", float64(t.w.questions[b.question].gates))
	t.add("fingerprint", fp)
	t.add("respond", respond)
	t.add("http_overhead", lat-tm.QueueMS-tm.TotalMS)
	t.add("remainder", lat-accounted)
	t.add("replay", ms(time.Since(replayStart)))
}

// replayFlow runs the daemon's flow in-process with its default options and
// fresh DD packages: the simulation stage through core.Check, then the
// complete routine through ec.Check exactly as core.Check would call it.
func (t *tracer) replayFlow(pos int, root time.Time, g1, g2 *circuit.Circuit, truth string) error {
	ctx, cancel := context.WithTimeout(context.Background(), serverTimeout)
	defer cancel()
	var rep core.Report
	t.timed(pos, root, "core.check", func() {
		rep = core.Check(g1, g2, core.Options{
			Context:   ctx,
			Strategy:  ec.Proportional,
			ECTimeout: serverTimeout,
			SkipEC:    true,
		})
	})
	verdict := rep.Verdict
	dd := rep.DD
	if rep.DecidedBy == "" && !rep.Cancelled && rep.Err == nil {
		var res ec.Result
		t.timed(pos, root, "ec.check", func() {
			res = ec.Check(g1, g2, ec.Options{Strategy: ec.Proportional, Context: ctx, Timeout: serverTimeout})
		})
		dd.Add(res.DD)
		t.add("ec.runs", 1)
		t.add("ec.peak_nodes", float64(res.PeakNodes))
		t.add("ec.gates_applied", float64(res.GatesApplied))
		t.add("ec.probe_muls", float64(res.ProbeMuls))
		switch res.Verdict {
		case ec.Equivalent:
			verdict = core.Equivalent
		case ec.NotEquivalent:
			verdict = core.NotEquivalent
		}
	}
	// The wire DD statistics carry no apply-table misses, so the apply hit
	// ratio comes from the replay's own packages.
	t.add("dd.apply_hits", float64(dd.ApplyHits))
	t.add("dd.apply_lookups", float64(dd.ApplyHits+dd.ApplyMisses))
	want := core.NotEquivalent
	if truth == server.VerdictEquivalent {
		want = core.Equivalent
	}
	if verdict != want {
		return fmt.Errorf("replayed flow says %v, want %s", verdict, truth)
	}
	return nil
}

// pass starts a daemon for w, answers the warm-up, sends seq from one
// caller and returns the samples with the /metrics counters' deltas.
func pass(ctx context.Context, w *workload, seq []int, bin, dir string, after func(int, *sample)) ([]sample, map[string]float64, error) {
	d, err := startFor(ctx, w, bin, dir)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	m0, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	c := newClient(d, 1, w.journal)
	defer c.close()
	samples := c.closedLoop(ctx, w, seq, "t", 1, time.Now().Add(passLimit), after)
	m1, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	for k := range m1 {
		m1[k] -= m0[k]
	}
	return samples, m1, ctx.Err()
}

func runTraced(ctx context.Context, name string, seed int64, seconds int, bin, dir, work string) (*result, error) {
	w, err := buildWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	seq := w.sequence[:min(len(w.sequence), seconds*tracedPerSecond[name])]
	base, _, err := pass(ctx, w, seq, bin, dir, nil)
	if err != nil {
		return nil, err
	}
	walF, err := os.Create(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return nil, err
	}
	defer walF.Close()
	t := &tracer{w: w, walF: walF, sum: map[string]float64{}}
	traced, delta, err := pass(ctx, w, seq, bin, dir, t.after)
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: len(base) + len(traced), Metrics: map[string]metric{}}
	for _, s := range append(base, traced...) {
		if s.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "request %d failed: %v\n", s.body, s.err)
		}
	}
	res.Correct = res.Failed == 0 && len(traced) > 0
	if !res.Correct {
		return res, nil
	}
	if err := writeSpans(filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", name, seed)), t.spans); err != nil {
		return nil, err
	}
	printSelfTimes(t.spans)

	sum := t.sum
	n := sum["requests"]
	per := func(k string, by float64) float64 {
		if by == 0 {
			return 0
		}
		return sum[k] / by
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	common := min(len(base), len(traced))
	var baseLat, tracedLat float64
	for i := 0; i < common; i++ {
		baseLat += ms(base[i].latency)
		tracedLat += ms(traced[i].latency)
	}
	put := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
	put("server.decode_ms", per("decode", n), "ms")
	put("server.respond_ms", per("respond", n), "ms")
	put("server.http_overhead_ms", per("http_overhead", n), "ms")
	put("server.queue_ms", per("queue", n), "ms")
	put("server.core_other_ms", per("core_other", n), "ms")
	put("server.cache_hit_ratio", ratio(delta["qcecd_cache_hits_total"], delta["qcecd_cache_hits_total"]+delta["qcecd_cache_misses_total"]), "ratio")
	put("server.journal_syncs_per_request", ratio(delta["qcecd_journal_syncs_total"], n), "count")
	put("qasm.parse_ms", per("parse", n), "ms")
	put("qasm.parse_us_per_gate", 1000*per("parse", sum["parse_gates"]), "us")
	put("fingerprint.pair_ms", per("fingerprint", n), "ms")
	put("wal.append_sync_ms", per("wal.ms", sum["wal.appends"]), "ms")
	put("core.sim_ms", per("sim", n), "ms")
	put("core.ec_ms", per("ec", n), "ms")
	put("sim.num_sims", per("num_sims", sum["executed"]), "count")
	put("sim.ms_per_sim", per("sim", sum["num_sims"]), "ms")
	put("ec.peak_nodes", per("ec.peak_nodes", sum["ec.runs"]), "count")
	put("ec.gates_applied", per("ec.gates_applied", sum["ec.runs"]), "count")
	put("ec.probe_muls", per("ec.probe_muls", sum["ec.runs"]), "count")
	put("dd.nodes_created", per("dd.nodes", sum["executed"]), "count")
	put("dd.apply_calls", per("dd.apply_calls", sum["executed"]), "count")
	put("dd.apply_hit_ratio", per("dd.apply_hits", sum["dd.apply_lookups"]), "ratio")
	put("dd.compute_hit_ratio", per("dd.compute_hits", sum["dd.compute_lookups"]), "ratio")
	put("dd.gate_hit_ratio", per("dd.gate_hits", sum["dd.gate_lookups"]), "ratio")
	put("dd.pool_reuse_ratio", ratio(delta["qcecd_dd_pool_reuses_total"], delta["qcecd_dd_pool_gets_total"]), "ratio")
	put("ledger.remainder_ms", per("remainder", n), "ms")
	// The replay runs between one response and the next request, outside
	// every measured round trip, so its time is what tracing costs a run.
	put("trace.overhead_ms", per("replay", n), "ms")
	// With the replay out of band, the traced-minus-untraced latency is the
	// spread between two passes on fresh daemons, not a cost of tracing.
	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d requests (%v executed), mean latency %.3f ms traced, %.3f ms untraced (difference %.3f ms)\n",
		name, seed, len(traced), sum["executed"], ratio(tracedLat, float64(common)), ratio(baseLat, float64(common)), ratio(tracedLat-baseLat, float64(common)))
	return res, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	return f.Close()
}

// printSelfTimes writes each span name's total and self time to standard
// error.  Self time is a span's duration minus the part of its interval its
// children cover; replayed spans run after the round trip, so they cover
// none of it.
func printSelfTimes(spans []span) {
	type key struct {
		req  int
		name string
	}
	byKey := map[key]span{}
	for _, s := range spans {
		byKey[key{s.Req, s.Name}] = s
	}
	total, self := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		total[s.Name] += s.Dur
		self[s.Name] += s.Dur
		if p, ok := byKey[key{s.Req, s.Parent}]; ok {
			lo, hi := max(s.Start, p.Start), min(s.Start+s.Dur, p.Start+p.Dur)
			if hi > lo {
				self[p.Name] -= hi - lo
			}
		}
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-18s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-18s %12.3f %12.3f\n", n, total[n], self[n])
	}
}
