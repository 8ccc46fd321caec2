package placement

import (
	"fmt"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/obs"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
)

// Global is the on-line centralised policy (§2.2): the client periodically
// re-runs the one-shot optimiser seeded with the *current* placement, using
// monitored (global) bandwidth knowledge, and coordinates each change-over
// with the engine's iteration-numbered barrier. The placer runs as its own
// simulated process, concurrently with the computation (the concurrency
// requirement); its monitoring probes cost the placer time but do not stall
// the pipeline.
type Global struct {
	// Period between placement recomputations (DefaultPeriod if zero).
	Period time.Duration

	// stats
	proposals int
	au        Auditor
}

// Name implements Policy.
func (g *Global) Name() string { return "global" }

// Proposals returns how many change-overs the policy proposed.
func (g *Global) Proposals() int { return g.proposals }

// DecisionStats implements DecisionAudited.
func (g *Global) DecisionStats() DecisionStats { return g.au.Stats() }

// InitialPlacement implements Policy: identical to the one-shot algorithm
// (the global algorithm's only modification is at runtime).
func (g *Global) InitialPlacement(p *sim.Proc, x *Instance) *plan.Placement {
	return initialOneShot(p, x, &g.au, "global")
}

// Attach implements Policy: spawn the periodic placer process at the client.
func (g *Global) Attach(x *Instance, e *dataflow.Engine) {
	period := g.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	g.au.Bind(e.Kernel(), "global")
	name := "global-placer"
	if t := e.Tenant(); t != 0 {
		name = fmt.Sprintf("t%d.global-placer", t)
	}
	placer := e.Kernel().Spawn(name, func(p *sim.Proc) {
		for {
			p.Hold(period)
			if e.Completed() || e.Aborted() {
				return
			}
			if e.SwitchInProgress() {
				continue // previous change-over still draining
			}
			cur := e.CurrentPlacement()
			d := g.au.StartDecision(x.ClientHost, -1)
			bw := x.AuditedSnapshotBW(p, x.ClientHost, d)
			next := OneShotOptimizeAudited(x.eval, cur, x.Hosts, bw, d)
			if e.Completed() || e.Aborted() {
				return // probes may have outlived the run
			}
			if !next.Equal(cur) && e.ProposeSwitch(next) {
				g.proposals++
				if k := e.Kernel(); k.Telemetry() != nil {
					k.Emit(telemetry.Event{
						Kind: telemetry.KindRelocationProposed,
						Aux:  "global",
					})
				}
			}
		}
	})
	placer.SetSubsystem(obs.SubsysPlacement)
	if t := e.Tenant(); t != 0 {
		placer.SetTenant(t)
	}
}
