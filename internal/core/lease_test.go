package core

import (
	"context"
	"testing"

	"qcec/internal/dd"
)

// cancelInjector cancels the check's context at the first gate application
// and then builds every basis state on the applying package — more than
// one allocation checkpoint's worth of nodes — so only the package's own
// cancellation hook can stop it before the gate is applied.
type cancelInjector struct {
	cancel context.CancelFunc
	fired  bool
	filled bool // the fill ran to the end: nothing stopped the package
}

func (c *cancelInjector) BeforeApply(p *dd.Package, _ uint64) {
	if c.fired {
		return
	}
	c.fired = true
	c.cancel()
	for i := uint64(0); i < 1<<p.Qubits(); i++ {
		p.BasisState(i)
	}
	c.filled = true
}

// TestSimulationLeasesWithCheckContext: the simulation stage leases its
// package on the check's context, so a cancellation reaches inside the
// first stimulus's run instead of waiting for the poll between stimuli.
func TestSimulationLeasesWithCheckContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := &cancelInjector{cancel: cancel}
	dd.SetDefaultFaultInjector(inj)
	defer dd.SetDefaultFaultInjector(nil)

	g := ghz(13) // 16382 basis-state nodes: past the 8192-allocation checkpoint
	rep := Check(g, g.Clone(), Options{Context: ctx, R: 4, SkipEC: true})
	if !inj.fired {
		t.Fatal("no gate application reached the injector")
	}
	if inj.filled {
		t.Fatal("the cancelled package kept allocating: the simulation's package does not watch the check's context")
	}
	if !rep.Cancelled || rep.NumSims != 0 || rep.Err != nil {
		t.Errorf("report: cancelled=%v after %d sims (err %v), want cancelled inside the first stimulus",
			rep.Cancelled, rep.NumSims, rep.Err)
	}
}
