package faults

import (
	"math/rand"
	"sort"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
)

// Injector imposes a Plan on a running simulation. It implements
// netmodel.FaultHook (message drop/duplication, down-host delivery loss,
// mid-transfer link cuts) and schedules the plan's crash/recover windows on
// the kernel, notifying the recovery layer through callbacks.
//
// All randomness comes from the seeded stream handed to NewInjector and is
// consumed in kernel event order, so a faulty simulation replays
// identically from its seed.
type Injector struct {
	plan *Plan
	rng  *rand.Rand

	down map[netmodel.HostID]bool
	// outages is the plan's outages ordered by start.
	outages []LinkOutage

	crashFired int
}

// NewInjector builds an injector for the plan. rng is the dedicated fault
// stream (derive it from the run seed).
func NewInjector(plan *Plan, rng *rand.Rand) *Injector {
	in := &Injector{plan: plan, rng: rng, down: make(map[netmodel.HostID]bool)}
	for _, o := range plan.Outages {
		if o.A > o.B {
			o.A, o.B = o.B, o.A
		}
		in.outages = append(in.outages, o)
	}
	sort.Slice(in.outages, func(i, j int) bool { return in.outages[i].Start < in.outages[j].Start })
	return in
}

// Rand returns the injector's seeded fault stream (the recovery layer draws
// its retry jitter here, keeping the kernel's model stream untouched).
func (in *Injector) Rand() *rand.Rand { return in.rng }

// Schedule registers every crash window's down/up transition on the kernel.
// onCrash runs at the instant the host goes down (after the down flag is
// set), onRecover at the instant it comes back; both run in scheduler
// context, where killing processes is legal. Call once, before the
// simulation starts.
func (in *Injector) Schedule(k *sim.Kernel, onCrash, onRecover func(h netmodel.HostID)) {
	for _, w := range in.plan.Crashes {
		w := w
		k.At(w.At, func() {
			in.down[w.Host] = true
			in.crashFired++
			if k.Telemetry() != nil {
				k.Emit(telemetry.Event{
					Kind: telemetry.KindCrashFired,
					Host: int32(w.Host), Dur: int64(w.RecoverAt - w.At),
				})
			}
			if onCrash != nil {
				onCrash(w.Host)
			}
		})
		k.At(w.RecoverAt, func() {
			in.down[w.Host] = false
			if k.Telemetry() != nil {
				k.Emit(telemetry.Event{
					Kind: telemetry.KindHostRecovered,
					Host: int32(w.Host),
				})
			}
			if onRecover != nil {
				onRecover(w.Host)
			}
		})
	}
}

// CrashesFired reports how many crash windows have taken effect so far.
func (in *Injector) CrashesFired() int { return in.crashFired }

// HostDown implements netmodel.FaultHook.
func (in *Injector) HostDown(h netmodel.HostID) bool { return in.down[h] }

// CutDuring implements netmodel.FaultHook: the earliest outage on a<->b
// whose window intersects [from, until).
func (in *Injector) CutDuring(a, b netmodel.HostID, from, until sim.Time) (sim.Time, bool) {
	if a > b {
		a, b = b, a
	}
	for _, o := range in.outages {
		if o.Start >= until {
			break // sorted by start: nothing later can intersect
		}
		if o.A != a || o.B != b || o.End <= from {
			continue // another link, or already over
		}
		at := o.Start
		if at < from {
			at = from // the outage is already in progress
		}
		return at, true
	}
	return 0, false
}

// Fate implements netmodel.FaultHook: one uniform draw per transfer decides
// drop vs duplicate vs normal delivery. A plan without drop or duplication
// costs no draw, so a plan with only crash windows perturbs nothing else.
func (in *Injector) Fate() netmodel.Fate {
	pl := in.plan
	if pl.DropProb <= 0 && pl.DupProb <= 0 {
		return netmodel.FateDeliver
	}
	u := in.rng.Float64()
	switch {
	case u < pl.DropProb:
		return netmodel.FateDrop
	case u < pl.DropProb+pl.DupProb:
		return netmodel.FateDuplicate
	default:
		return netmodel.FateDeliver
	}
}
