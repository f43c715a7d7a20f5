package dd_test

import (
	"context"
	"testing"
	"time"

	"qcec/internal/bench"
	"qcec/internal/dd"
	"qcec/internal/sim"
)

// qftClosingProduct builds U = QFT-8 twice on p, gate by gate as the
// construction check does, and returns the product that closes that check,
// U·U†, as a call that reports the value it panicked with.
func qftClosingProduct(p *dd.Package) func() any {
	g := bench.QFT(8)
	build := func() dd.MEdge {
		u := p.Identity()
		for _, gt := range g.Gates {
			u = p.MulMM(sim.GateDD(p, gt), u)
		}
		return u
	}
	u1, u2 := build(), build()
	return func() (r any) {
		defer func() { r = recover() }()
		p.MulMM(u2, p.ConjugateTranspose(u1))
		return nil
	}
}

// TestCheckpointCountsComputeMisses: a product that re-finds most of its
// nodes allocates too few to reach a checkpoint by allocations alone, yet a
// cancelled lease and a past deadline must stop it, as they stop any other
// long DD operation.  The closing product of a QFT-8 construction check
// creates under 800 nodes over some 22,000 compute-table misses.
func TestCheckpointCountsComputeMisses(t *testing.T) {
	p := dd.NewPool(1).Lease(nil, 8, 0)
	product := qftClosingProduct(p)
	before := p.Snapshot()
	if r := product(); r != nil {
		t.Fatalf("unbounded product panicked: %v", r)
	}
	d := p.Snapshot().Since(before)
	if d.NodesCreated >= 8192 || d.CacheMisses < 8192 {
		t.Fatalf("product created %d nodes over %d misses, want under one checkpoint of nodes and over one of misses",
			d.NodesCreated, d.CacheMisses)
	}
	p.Release(false)

	ctx, cancel := context.WithCancel(context.Background())
	p = dd.NewPool(1).Lease(ctx, 8, 0)
	product = qftClosingProduct(p)
	cancel()
	if le, ok := product().(*dd.LimitError); !ok || !le.Cancelled {
		t.Errorf("cancelled lease: product ended with %v, want a *LimitError with Cancelled set", le)
	}
	p.Release(false)

	p = dd.NewPool(1).Lease(nil, 8, 0)
	product = qftClosingProduct(p)
	p.SetDeadline(time.Now().Add(-time.Second))
	if le, ok := product().(*dd.LimitError); !ok || !le.Deadline {
		t.Errorf("past deadline: product ended with %v, want a *LimitError with Deadline set", le)
	}
	p.Release(false)
}
