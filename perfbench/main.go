// Command perfbench is the qcecd client benchmark.  It generates one of three
// request workloads from a seed, drives a qcecd child process over loopback
// HTTP from a closed loop of two callers, checks every verdict against
// ground truth decided during set-up, and prints its metrics as the last
// line of standard output:
//
//	perfbench -qcecd .bench_build/qcecd -work .bench_build \
//	    --workload ci-verify --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the client-visible end-to-end metrics; with
// --trace 1 it reruns the workload with one caller, replays each request's
// layers in-process, and reports per-layer metrics (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median, the last set-up is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ci-verify, ci-rerun or clifford-sim")
		seed    = flag.Int64("seed", 1, "workload generation seed")
		seconds = flag.Int("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		bin     = flag.String("qcecd", ".bench_build/qcecd", "qcecd binary")
		work    = flag.String("work", ".bench_build", "directory for journals, logs and span files")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, *name, *seed, *seconds, *trace == 1, *bin, *work)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds int, traced bool, bin, work string) (*result, error) {
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("qcecd binary: %w", err)
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(os.Stderr, "machine: nproc=%d go=%s fsync_ms=%.3f\n", runtime.NumCPU(), runtime.Version(), fsyncCost(dir))
	if traced {
		return runTraced(ctx, name, seed, seconds, bin, dir, work)
	}
	return runUntraced(ctx, name, seed, seconds, bin, dir)
}

// startFor starts a daemon for w, journaling into a fresh directory when the
// workload asks, and answers the warm-up.
func startFor(ctx context.Context, w *workload, bin, dir string) (*daemon, error) {
	journalDir := ""
	if w.journal {
		var err error
		if journalDir, err = os.MkdirTemp(dir, "journal-"); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(ctx, bin, dir, journalDir)
	if err != nil {
		return nil, err
	}
	c := newClient(d, 2, w.journal)
	defer c.close()
	if err := c.warmUp(ctx, w); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func runUntraced(ctx context.Context, name string, seed int64, seconds int, bin, dir string) (*result, error) {
	var setups, gens []float64
	var oracle time.Duration
	var w *workload
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if w, err = buildWorkload(name, seed, seconds); err != nil {
			return nil, err
		}
		// The ground-truth oracle is the benchmark's own work, not qcecd's.
		gens = append(gens, (time.Since(start) - w.oracle).Seconds())
		if d, err = startFor(ctx, w, bin, dir); err != nil {
			return nil, err
		}
		setups = append(setups, (time.Since(start) - w.oracle).Seconds())
		oracle += w.oracle
	}
	defer d.stop()

	c := newClient(d, 2, w.journal)
	defer c.close()
	// Collect set-up garbage now, so this process's collector does not
	// compete with the daemon for CPU while the loop is timed.
	debug.FreeOSMemory()
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	samples := c.closedLoop(ctx, w, w.sequence, "t", 2, start.Add(time.Duration(seconds)*time.Second), nil)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	res := &result{Attempted: len(samples), Metrics: map[string]metric{}}
	var lat, hitLat, missLat []float64
	end := start
	for _, s := range samples {
		if s.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "request %d failed: %v\n", s.body, s.err)
			continue
		}
		lat = append(lat, ms(s.latency))
		if s.resp.Cached {
			hitLat = append(hitLat, ms(s.latency))
		} else {
			missLat = append(missLat, ms(s.latency))
		}
		if e := s.start.Add(s.latency); e.After(end) {
			end = e
		}
	}
	res.Correct = res.Failed == 0 && len(lat) > 0
	if !res.Correct {
		return res, nil
	}
	sort.Float64s(lat)
	completed := float64(len(lat))
	res.Metrics["throughput_cps"] = metric{completed / end.Sub(start).Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	res.Metrics["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	res.Metrics["cpu_ms_per_check"] = metric{ms(cpu1-cpu0) / completed, "ms"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d checks in %.2fs, %d latency samples, failed_ratio %.4f, setups %.3f s (generation %.3f s), oracle %.2f s\n",
		name, seed, len(lat), end.Sub(start).Seconds(), len(lat), float64(res.Failed)/float64(res.Attempted), setups, gens, oracle.Seconds())
	fmt.Fprintf(os.Stderr, "%s seed %d: %d cache hits, median %.2f ms; %d executed, median %.2f ms\n",
		name, seed, len(hitLat), median(hitLat), len(missLat), median(missLat))
	return res, nil
}

// fsyncCost times a 4 KiB write plus fsync in dir (median of five).
func fsyncCost(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		return math.NaN()
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var t []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return math.NaN()
		}
		if err := f.Sync(); err != nil {
			return math.NaN()
		}
		t = append(t, ms(time.Since(start)))
	}
	return median(t)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
