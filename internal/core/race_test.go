package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"qcec/internal/portfolio"
)

// TestDegradedChangesOnlyRetryFields fills every Options field with a
// non-zero value and checks that Degraded changes exactly Parallel, Pool
// and ECNodeLimit.  Every field must be listed as degraded or kept, so a
// new field cannot slip past the retry policy unexamined.
func TestDegradedChangesOnlyRetryFields(t *testing.T) {
	degraded := map[string]bool{"Parallel": true, "Pool": true, "ECNodeLimit": true}
	kept := map[string]bool{
		"Context": true, "Provers": true, "RetryCrashed": true, "R": true, "Seed": true,
		"Stimuli": true, "SkipEC": true, "Strategy": true, "ECTimeout": true,
		"RewritePrefilter": true, "ZXPrefilter": true, "UpToGlobalPhase": true,
		"OutputPerm": true, "Tolerance": true,
		"MemSoftLimit": true, "MemHardLimit": true, "FidelityThreshold": true,
	}
	var opts Options
	v := reflect.ValueOf(&opts).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if degraded[name] == kept[name] {
			t.Fatalf("Options.%s is neither degraded nor kept by the retry policy: decide, then list it here", name)
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(5000) // above ec.DegradedNodeLimit's halving threshold
		case reflect.Uint64:
			f.SetUint(5000)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Interface:
			f.Set(reflect.ValueOf(context.Background()))
		default:
			t.Fatalf("Options.%s: no test value for kind %v", name, f.Kind())
		}
	}
	d := reflect.ValueOf(opts.Degraded())
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		same := reflect.DeepEqual(v.Field(i).Interface(), d.Field(i).Interface())
		if degraded[name] == same {
			t.Errorf("Options.%s: degraded=%v but Degraded() changed=%v", name, degraded[name], !same)
		}
	}
}

// TestRaceRejectsPipelineOptions: the options a race cannot honour come
// back as a typed *OptionsError naming the field, and nothing runs.
func TestRaceRejectsPipelineOptions(t *testing.T) {
	g := ghz(3)
	for field, opts := range map[string]Options{
		"SkipEC":            {SkipEC: true},
		"RewritePrefilter":  {RewritePrefilter: true},
		"ZXPrefilter":       {ZXPrefilter: true},
		"FidelityThreshold": {FidelityThreshold: 0.99},
	} {
		opts.Provers = []string{"sim", "alt"}
		rep := Check(g, g.Clone(), opts)
		var oe *OptionsError
		if !errors.As(rep.Err, &oe) || oe.Field != field {
			t.Fatalf("%s with Provers: err = %v, want *OptionsError on %s", field, rep.Err, field)
		}
		if rep.Verdict != ProbablyEquivalent || rep.Provers != nil || rep.NumSims != 0 {
			t.Fatalf("%s with Provers: rejected options still ran: %+v", field, rep)
		}
		if _, err := NewProver("sim", opts); !errors.As(err, &oe) {
			t.Fatalf("NewProver accepted %s: %v", field, err)
		}
		// The pipeline honours the same option.
		opts.Provers = nil
		if rep := Check(g, g.Clone(), opts); rep.Err != nil {
			t.Fatalf("%s without Provers: %v", field, rep.Err)
		}
	}
}

// TestRaceReport: a race answers in the pipeline's Report shape, with the
// winner in DecidedBy, a table entry per prover, and an inconclusive
// ProbablyEquivalent (Cancelled) when the caller's context ends it first.
func TestRaceReport(t *testing.T) {
	g := ghz(4)
	bad := g.Clone().X(0)
	rep := Check(g, bad, Options{Provers: []string{"sim", "alt"}})
	if rep.Verdict != NotEquivalent || rep.Counterexample == nil || rep.DecidedBy == "" {
		t.Fatalf("race on a buggy pair: %+v", rep)
	}
	if len(rep.Provers) != 2 || rep.Provers[0].Name != "sim" || rep.Provers[1].Name != "alt" {
		t.Fatalf("prover table %+v, want sim then alt", rep.Provers)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep = Check(g, g.Clone(), Options{Context: ctx, Provers: []string{"alt"}})
	if rep.Verdict != ProbablyEquivalent || !rep.Cancelled || !errors.Is(rep.CancelCause, context.Canceled) {
		t.Fatalf("race under a cancelled context: verdict %v cancelled %v cause %v",
			rep.Verdict, rep.Cancelled, rep.CancelCause)
	}
	if got := rep.Provers[0].Stop; got != portfolio.StopTimeout {
		t.Fatalf("prover stopped by the caller's context: stop = %v, want %v", got, portfolio.StopTimeout)
	}
}

// TestStrictRaceNeedsStrictVerdict: zx proves equivalence only up to a
// global phase, so in a strict race its proof is inconclusive and cannot
// beat a strict verdict that is still running.  Alone it leaves the race
// undecided; against alt the answer is alt's strict Equivalent on every
// run, whichever prover finishes first.  An up-to-phase race still takes
// zx's proof.
func TestStrictRaceNeedsStrictVerdict(t *testing.T) {
	g := loadSeedCircuit(t, filepath.Join("..", "..", "circuits", "qft8.qasm"))
	rep := Check(g, g.Clone(), Options{Provers: []string{"zx"}})
	if rep.Verdict == EquivalentUpToGlobalPhase || rep.DecidedBy != "" {
		t.Fatalf("zx alone in a strict race: %v by %q, want no winner", rep.Verdict, rep.DecidedBy)
	}
	if got := rep.Provers[0].Stop; got != portfolio.StopInconclusive {
		t.Fatalf("zx in a strict race: stop = %v, want %v", got, portfolio.StopInconclusive)
	}
	for i := 0; i < 20; i++ {
		rep := Check(g, g.Clone(), Options{Provers: []string{"zx", "alt"}})
		if rep.Verdict != Equivalent || rep.DecidedBy != "alt" {
			t.Fatalf("run %d: zx racing alt: %v by %q, want equivalent by alt", i, rep.Verdict, rep.DecidedBy)
		}
	}
	rep = Check(g, g.Clone(), Options{Provers: []string{"zx"}, UpToGlobalPhase: true})
	if rep.Verdict != EquivalentUpToGlobalPhase || rep.DecidedBy != "zx" {
		t.Fatalf("zx alone in an up-to-phase race: %v by %q, want equivalent up to global phase by zx",
			rep.Verdict, rep.DecidedBy)
	}
}
