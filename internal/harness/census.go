package harness

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"qcec/internal/core"
)

// The prover census runs every prover of core.ProverNames alone (a race of
// one), and the pipeline, on every pair of the census suite in strict and
// in up-to-phase mode.  A prover that never decides a pair alone and is
// never clearly the fastest decider adds code but no answer.

// CensusRuns is the number of runs whose median time a deciding census row
// reports.
const CensusRuns = 3

// CensusPipeline names the pipeline's census entry.
const CensusPipeline = "pipeline"

var censusModes = []string{"strict", "up-to-phase"}

// CensusRow is one entry, a prover alone or the pipeline, on one pair in
// one phase mode.
type CensusRow struct {
	Pair, Mode, Entry string
	Verdict           core.Verdict
	Wrong             bool // definitive and against the pair's ground truth
	// Time is the median TotalTime of CensusRuns runs when the entry
	// decided the pair, else the one run's.
	Time time.Duration
}

// BuildCensusSuite gathers the census's pairs, each name prefixed with its
// suite: Table Ib's and Table Ia's, the classical reversible suite, the
// prefilter suite and CompiledSuite.
func BuildCensusSuite(scale Scale, seed int64) ([]Instance, error) {
	suites := []struct {
		name  string
		build func() ([]Instance, error)
	}{
		{"Ib", func() ([]Instance, error) { return BuildEquivalentSuite(scale) }},
		{"Ia", func() ([]Instance, error) { return BuildNonEquivalentSuite(scale, seed) }},
		{"classical", func() ([]Instance, error) { return BuildClassicalSuite(scale, seed) }},
		{"prefilter", func() ([]Instance, error) { return BuildPrefilterSuite(scale) }},
		{"compiled", func() ([]Instance, error) {
			pairs, err := CompiledSuite(seed)
			var out []Instance
			for _, p := range pairs {
				out = append(out, Instance{Name: p.Name, N: p.Source.N, G: p.Source, Gp: p.Compiled, WantEquivalent: p.Equivalent})
			}
			return out, err
		}},
	}
	var out []Instance
	for _, s := range suites {
		instances, err := s.build()
		if err != nil {
			return nil, err
		}
		for _, inst := range instances {
			inst.Name = s.name + "/" + inst.Name
			out = append(out, inst)
		}
	}
	return out, nil
}

// RunCensus runs every entry on every instance, in instance order, in both
// phase modes, through core.Check on opts and the instance's OutputPerm; a
// race of one runs under a context whose deadline is opts.ECTimeout, as the
// pipeline's complete check does.  An entry that decides a pair runs
// CensusRuns times and the first run's verdict counts; one that does not
// runs once.
func RunCensus(instances []Instance, opts core.Options) []CensusRow {
	opts = withDefaults(opts)
	var rows []CensusRow
	for _, inst := range instances {
		for _, mode := range censusModes {
			for _, entry := range append(slices.Clone(core.ProverNames), CensusPipeline) {
				o := opts
				o.OutputPerm = inst.OutputPerm
				o.UpToGlobalPhase = mode != "strict"
				if entry != CensusPipeline {
					o.Provers = []string{entry}
				}
				row := CensusRow{Pair: inst.Name, Mode: mode, Entry: entry}
				var times []time.Duration
				for run := 0; run < CensusRuns; run++ {
					cancel := context.CancelFunc(func() {})
					if o.Provers != nil {
						o.Context, cancel = context.WithTimeout(context.Background(), o.ECTimeout)
					}
					rep := core.Check(inst.G, inst.Gp, o)
					cancel()
					if run == 0 {
						row.Verdict = rep.Verdict
						row.Wrong = rep.Verdict != core.ProbablyEquivalent && (rep.Verdict == core.NotEquivalent) == inst.WantEquivalent
					}
					times = append(times, rep.TotalTime)
					if row.Verdict == core.ProbablyEquivalent {
						break
					}
				}
				slices.Sort(times)
				row.Time = times[len(times)/2]
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// PrintCensus renders RunCensus's rows: per phase mode and entry, the pairs
// it decides, decides alone (no other entry, the pipeline included, does),
// decides fastest (in under half the next decider's time, and over 1 ms
// less) and decides wrongly, then the pairs behind the last three counts.
func PrintCensus(w io.Writer, rows []CensusRow, opts core.Options) {
	opts = withDefaults(opts)
	entries := append(slices.Clone(core.ProverNames), CensusPipeline)
	n := len(entries)
	type tally struct{ decides, alone, fastest, wrong int }
	tallies := make([]tally, len(censusModes)*n)
	var notes []string
	note := func(r CensusRow, format string, args ...any) {
		notes = append(notes, fmt.Sprintf("  %s %s: ", r.Mode, r.Entry)+fmt.Sprintf(format, args...))
	}
	for i := 0; i+n <= len(rows); i += n { // one pair in one mode
		group, t := rows[i:i+n], tallies[(i/n)%len(censusModes)*n:]
		best, next, deciders := -1, -1, 0
		for j, r := range group {
			if r.Verdict == core.ProbablyEquivalent {
				continue
			}
			deciders++
			t[j].decides++
			if r.Wrong {
				t[j].wrong++
				note(r, "wrong on %s (%v)", r.Pair, r.Verdict)
			}
			if best < 0 || r.Time < group[best].Time {
				best, next = j, best
			} else if next < 0 || r.Time < group[next].Time {
				next = j
			}
		}
		switch {
		case deciders == 1:
			t[best].alone++
			note(group[best], "alone on %s (%.4fs)", group[best].Pair, group[best].Time.Seconds())
		case deciders > 1 && 2*group[best].Time < group[next].Time && group[next].Time-group[best].Time > time.Millisecond:
			t[best].fastest++
			note(group[best], "fastest on %s (%.4fs; next %s %.4fs)",
				group[best].Pair, group[best].Time.Seconds(), group[next].Entry, group[next].Time.Seconds())
		}
	}
	fmt.Fprintf(w, "Prover census — each prover alone and the pipeline, %d pairs (r = %d, EC timeout %s, median of %d runs)\n",
		len(rows)/(n*len(censusModes)), opts.R, opts.ECTimeout, CensusRuns)
	fmt.Fprintf(w, "%-12s %-9s %8s %6s %8s %6s\n", "mode", "entry", "decides", "alone", "fastest", "wrong")
	for k, t := range tallies {
		fmt.Fprintf(w, "%-12s %-9s %8d %6d %8d %6d\n", censusModes[k/n], entries[k%n], t.decides, t.alone, t.fastest, t.wrong)
	}
	for _, s := range notes {
		fmt.Fprintln(w, s)
	}
}
