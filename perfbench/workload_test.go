package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"qcec/internal/fingerprint"
	"qcec/internal/qasm"
	"qcec/internal/server"
)

const testSeconds = 2

func testWorkload(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	w, err := buildWorkload(name, seed, testSeconds)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(w.sequence) == 0 {
		t.Fatalf("%s: empty sequence", name)
	}
	return w
}

func decodeBody(t *testing.T, b body) server.CheckRequest {
	t.Helper()
	var req server.CheckRequest
	if err := json.Unmarshal(b.data, &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// Every circuit survives qasm.WriteString → qasm.Parse with an identical
// fingerprint, and every body (cosmetic variants included) parses to its
// question's pair fingerprint.
func TestBodiesRoundTrip(t *testing.T) {
	for _, name := range workloadNames {
		w := testWorkload(t, name, 1)
		for i, q := range w.questions {
			for _, src := range []string{q.g, q.gp} {
				p1, err := qasm.Parse(src)
				if err != nil {
					t.Fatalf("%s question %d: %v", name, i, err)
				}
				again, err := qasm.WriteString(p1.Circuit)
				if err != nil {
					t.Fatalf("%s question %d: %v", name, i, err)
				}
				p2, err := qasm.Parse(again)
				if err != nil {
					t.Fatalf("%s question %d: %v", name, i, err)
				}
				if fingerprint.Circuit(p1.Circuit) != fingerprint.Circuit(p2.Circuit) {
					t.Fatalf("%s question %d: fingerprint changed across a write/parse round trip", name, i)
				}
			}
		}
		for i, b := range w.bodies {
			req := decodeBody(t, b)
			g, gp, err := parsePair(req.G, req.Gp)
			if err != nil {
				t.Fatalf("%s body %d: %v", name, i, err)
			}
			if fingerprint.Pair(g, gp) != w.questions[b.question].fp {
				t.Fatalf("%s body %d: fingerprint differs from its question's", name, i)
			}
		}
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range workloadNames {
		a, b := testWorkload(t, name, 7), testWorkload(t, name, 7)
		if len(a.bodies) != len(b.bodies) || len(a.sequence) != len(b.sequence) {
			t.Fatalf("%s: shapes differ under one seed", name)
		}
		for i := range a.bodies {
			if !bytes.Equal(a.bodies[i].data, b.bodies[i].data) {
				t.Fatalf("%s: body %d differs under one seed", name, i)
			}
		}
		for i := range a.sequence {
			if a.sequence[i] != b.sequence[i] {
				t.Fatalf("%s: sequence differs at %d under one seed", name, i)
			}
		}
		c := testWorkload(t, name, 8)
		if bytes.Equal(a.bodies[0].data, c.bodies[0].data) {
			t.Fatalf("%s: seeds 7 and 8 give the same first body", name)
		}
	}
}

// The cold workloads never repeat a question, so every request misses the
// verdict cache; the rerun workload sends only warm questions' variants and
// never-seen questions.
func TestCacheTemperature(t *testing.T) {
	for _, name := range []string{"ci-verify", "clifford-sim"} {
		w := testWorkload(t, name, 3)
		seen := map[fingerprint.Digest]bool{}
		for _, i := range w.sequence {
			fp := w.questions[w.bodies[i].question].fp
			if seen[fp] {
				t.Fatalf("%s: fingerprint repeats within the sequence", name)
			}
			seen[fp] = true
		}
	}
	w := testWorkload(t, "ci-rerun", 3)
	warm := map[int]bool{}
	for _, i := range w.warmup {
		warm[w.bodies[i].question] = true
	}
	fresh := 0
	for _, i := range w.sequence {
		b := w.bodies[i]
		if b.fresh {
			fresh++
			if warm[b.question] {
				t.Fatal("ci-rerun: a fresh body repeats a warm question")
			}
		} else if !warm[b.question] {
			t.Fatal("ci-rerun: a repeat body is not a warm question")
		}
	}
	if share := float64(fresh) / float64(len(w.sequence)); share < 0.03 || share > 0.07 {
		t.Fatalf("ci-rerun: fresh share %.3f, want about 1/%d", share, rerunFreshEvery)
	}
}

// Mutants the oracle could not separate are redrawn, so every question
// carries one of the two definitive strict verdicts, with mutants at three
// in ten.
func TestTruthMix(t *testing.T) {
	for _, name := range []string{"ci-verify", "clifford-sim"} {
		w := testWorkload(t, name, 5)
		neq := 0
		for _, q := range w.questions {
			switch q.truth {
			case server.VerdictNotEquivalent:
				neq++
			case server.VerdictEquivalent:
			default:
				t.Fatalf("%s: question with truth %q", name, q.truth)
			}
		}
		if share := float64(neq) / float64(len(w.questions)); share < 0.25 || share > 0.35 {
			t.Fatalf("%s: mutant share %.2f, want 0.3", name, share)
		}
	}
}
