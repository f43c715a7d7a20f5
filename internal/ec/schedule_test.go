package ec

import (
	"fmt"
	"testing"

	"qcec/internal/circuit"
)

// xChain returns an n-gate circuit on one wire; schedules depend only on
// gate counts (and, for gate-cost, on the gates themselves).
func xChain(n int) *circuit.Circuit {
	c := circuit.New(1, fmt.Sprintf("x%d", n))
	for k := 0; k < n; k++ {
		c.X(0)
	}
	return c
}

// ratioLoopOrder is the reference: the per-strategy loop the alternating
// checker ran before sequential and proportional became schedules.  It
// returns the side of every application in order, 'L' for a gate of G' and
// 'R' for an inverted gate of G.
func ratioLoopOrder(s Strategy, n1, n2 int) string {
	var order []byte
	i, j := 0, 0
	ratioLeft, ratioRight := 1, 1
	if s == Proportional {
		switch {
		case n1 == 0 || n2 == 0:
		case n2 >= n1:
			ratioLeft = (n2 + n1 - 1) / n1
		default:
			ratioRight = (n1 + n2 - 1) / n2
		}
	}
	for i < n1 || j < n2 {
		switch s {
		case Sequential:
			if j < n2 {
				order = append(order, 'L')
				j++
			} else {
				order = append(order, 'R')
				i++
			}
		case Proportional:
			for k := 0; k < ratioLeft && j < n2; k++ {
				order = append(order, 'L')
				j++
			}
			for k := 0; k < ratioRight && i < n1; k++ {
				order = append(order, 'R')
				i++
			}
		}
	}
	return string(order)
}

// scheduleOrder consumes a schedule the way runAlternating does.
func scheduleOrder(sched []int, n1, n2 int) string {
	var order []byte
	i, j := 0, 0
	for i < n1 || j < n2 {
		if i == n1 || j < sched[i] {
			order = append(order, 'L')
			j++
		} else {
			order = append(order, 'R')
			i++
		}
	}
	return string(order)
}

func TestScheduleReproducesRatioLoop(t *testing.T) {
	sizes := [][2]int{{0, 5}, {5, 0}, {7, 7}, {7, 21}, {7, 23}, {23, 7}, {1, 500}}
	for _, s := range []Strategy{Sequential, Proportional} {
		for _, sz := range sizes {
			n1, n2 := sz[0], sz[1]
			sched := schedule(s, xChain(n1), xChain(n2), nil)
			if len(sched) != n1 {
				t.Fatalf("%v (%d,%d): schedule has %d entries, want %d", s, n1, n2, len(sched), n1)
			}
			for i, v := range sched {
				if v < 0 || v > n2 || (i > 0 && v < sched[i-1]) {
					t.Fatalf("%v (%d,%d): schedule %v not non-decreasing within [0,%d]", s, n1, n2, sched, n2)
				}
			}
			if got, want := scheduleOrder(sched, n1, n2), ratioLoopOrder(s, n1, n2); got != want {
				t.Errorf("%v (%d,%d): schedule order\n%s\nwant\n%s", s, n1, n2, got, want)
			}
		}
	}
}

func TestDegradedNodeLimit(t *testing.T) {
	for _, tc := range []struct{ limit, want int }{
		{-1, 1 << 20},
		{0, 1 << 20},
		{1, 1},
		{4096, 4096},
		{4097, 2048},
		{1 << 20, 1 << 19},
	} {
		if got := DegradedNodeLimit(tc.limit); got != tc.want {
			t.Errorf("DegradedNodeLimit(%d) = %d, want %d", tc.limit, got, tc.want)
		}
	}
}

// TestParseStrategy covers every alias the CLIs and the server accept, and
// checks that each canonical String() spelling parses back to its scheme.
func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Strategy
	}{
		{"", Proportional},
		{"proportional", Proportional},
		{"construction", Construction},
		{"sequential", Sequential},
		{"lookahead", Lookahead},
		{"gate-cost", StrategyGateCost},
		{"gatecost", StrategyGateCost},
		{"gate_cost", StrategyGateCost},
		{"compilation_flow", StrategyGateCost},
		{"stabilizer", StrategyStabilizer},
	} {
		got, err := ParseStrategy(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, s := range []Strategy{Proportional, Construction, Sequential, Lookahead, StrategyGateCost, StrategyStabilizer} {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"bogus", "Proportional", " proportional", "gate cost"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) accepted an unknown name", bad)
		}
	}
}
