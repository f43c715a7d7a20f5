package ec

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

// TestCheckLeasesWithContext: the complete check and the stabilizer's phase
// anchor lease their package on Options.Context, so a cancellation reaches
// inside a gate application, and the shared guard reports it as
// CauseCancelled.
func TestCheckLeasesWithContext(t *testing.T) {
	g := ghz(13) // 16382 basis-state nodes: past the 8192-allocation checkpoint
	for _, strat := range []Strategy{Proportional, Construction, StrategyStabilizer} {
		ctx, cancel := context.WithCancel(context.Background())
		inj := &cancelInjector{cancel: cancel}
		dd.SetDefaultFaultInjector(inj)
		res := Check(g, g.Clone(), Options{Strategy: strat, Context: ctx})
		dd.SetDefaultFaultInjector(nil)
		cancel()
		if !inj.fired {
			t.Fatalf("%v: no gate application reached the injector", strat)
		}
		if inj.filled {
			t.Errorf("%v: the cancelled package kept allocating: the check's package does not watch its context", strat)
		}
		if res.Verdict != TimedOut || res.Cause != CauseCancelled {
			t.Errorf("%v: %v (cause %v), want a cancelled timeout", strat, res.Verdict, res.Cause)
		}
	}
}
