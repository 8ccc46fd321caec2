package sim

import (
	"iter"
	"time"

	"wadc/internal/obs"
	"wadc/internal/telemetry"
)

// signal is what a blocked process receives when the scheduler resumes it.
type signal int

const (
	signalWake signal = iota // the awaited condition holds, continue
	signalKill               // the simulation is over, unwind
)

// Proc is a simulated process: a runtime coroutine whose execution is
// interleaved, one at a time, by the kernel. Inside a process function, the
// blocking primitives (Hold, Mailbox.Recv, Resource.Acquire, Condition.Wait)
// advance simulated time; all other code runs instantaneously in simulation
// terms.
type Proc struct {
	k    *Kernel
	name string
	// next switches from the kernel into the process's coroutine and returns
	// when the process blocks or ends; yield, saved by the coroutine when it
	// first runs, switches back. Each is only ever called from its own side.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// sig is what the process reads when it resumes: stored by
	// Kernel.resume before it calls next.
	sig      signal
	finished bool
	// tenant is the tenant tag stamped onto every event emitted while this
	// process executes. Inherited from the spawner's context (Spawn copies
	// the kernel's tenant register), so a whole per-tenant process tree is
	// tagged by setting the tag once on its root bootstrap process.
	tenant int32
	// doomed marks a process killed by Kernel.Kill: its next resume —
	// whatever scheduled it — delivers a kill signal instead of a wake, so
	// the process unwinds (running its deferred cleanups) the next time the
	// scheduler reaches it.
	doomed bool
	// subsys is the process's current obs region: the subsystem its wall
	// time is attributed to when a performance recorder is attached. Set
	// once at spawn (SetSubsystem) for the process's home layer; shifted
	// temporarily by EnterRegion/ExitRegion when it calls into another
	// layer (e.g. a dataflow process blocking inside the network model).
	// Untouched runs leave it at the zero value ("other") at no cost.
	subsys obs.Subsystem
}

// Spawn creates a process running fn and schedules it to start at the current
// simulated time. The name appears in traces and error messages.
//
// The process body runs as a runtime coroutine (iter.Pull): Kernel.resume
// switches into it and Proc.block switches back, directly, without a trip
// through the Go scheduler's run queue. The coroutine's goroutine exits
// when the body returns or is unwound by a kill.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, tenant: k.tenant}
	k.procs = append(k.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		if p.sig != signalKill {
			if k.obs != nil && k.obs.LabelsEnabled() {
				// Tag the coroutine's CPU-profile samples with the
				// process's home subsystem and tenant. First resume runs
				// after SetSubsystem/SetTenant calls made at spawn time,
				// so the tags are already in place.
				obs.LabelGoroutine(p.subsys, p.tenant)
			}
			func() {
				defer func() {
					if r := recover(); r != nil && r != errKilled { //nolint:errorlint // sentinel identity
						k.failProc(p, r)
					}
				}()
				fn(p)
			}()
		}
		p.finished = true
	})
	k.schedule(k.now, nil, p)
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// SetTenant tags the process (and, transitively, every process it spawns and
// every event emitted while it runs) as belonging to tenant t. Call it right
// after Spawn, before the process first runs; the multi-tenant harness tags
// each tenant's bootstrap process this way.
func (p *Proc) SetTenant(t int32) { p.tenant = t }

// SetSubsystem declares the process's home obs region: the subsystem its
// wall time and CPU-profile samples are attributed to while it runs. Call
// it right after Spawn, like SetTenant. A field write — free, and harmless
// when no recorder is attached.
func (p *Proc) SetSubsystem(s obs.Subsystem) { p.subsys = s }

// EnterRegion shifts the process's obs region to s for the duration of a
// cross-layer call and returns the previous region for ExitRegion. The
// shift sticks across blocking: if the process yields mid-call (waiting on
// a NIC, say), its next resume is attributed to s, not to its home
// subsystem. Both calls are field writes plus one guarded region-clock
// switch — zero allocations, no-ops without a recorder.
//
//	prev := p.EnterRegion(obs.SubsysNet)
//	defer p.ExitRegion(prev)
func (p *Proc) EnterRegion(s obs.Subsystem) obs.Subsystem {
	prev := p.subsys
	p.subsys = s
	if p.k.obs != nil {
		p.k.obs.SwitchTo(s)
	}
	return prev
}

// ExitRegion restores the obs region saved by the matching EnterRegion.
func (p *Proc) ExitRegion(prev obs.Subsystem) {
	p.subsys = prev
	if p.k.obs != nil {
		p.k.obs.SwitchTo(prev)
	}
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time (convenience for p.Kernel().Now()).
func (p *Proc) Now() Time { return p.k.now }

// block yields control to the scheduler and returns when the kernel resumes
// the process, reading the signal resume stored. A kill signal unwinds the
// process via a sentinel panic recovered in Spawn.
//
//lint:hotpath
//lint:allocbudget 0 a coroutine switch is a direct runtime handoff; every blocking primitive runs through here
func (p *Proc) block() {
	p.yield(struct{}{})
	if p.sig == signalKill {
		panic(errKilled)
	}
}

// Hold suspends the process for simulated duration d.
//
//lint:hotpath
//lint:allocbudget 0 holds only arm a timer on the existing proc; allocation here would multiply by every hop of every transfer
func (p *Proc) Hold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if p.k.tel != nil {
		p.k.Emit(telemetry.Event{Kind: telemetry.KindProcHold, Name: p.name, Dur: int64(d)})
	}
	p.k.schedule(p.k.now.Add(d), nil, p)
	p.block()
}

// HoldUntil suspends the process until absolute simulated time t (no-op if t
// is not in the future).
func (p *Proc) HoldUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.k.schedule(t, nil, p)
	p.block()
}

// Condition is a waitable, broadcast-style flag keyed to arbitrary predicates:
// processes wait on it and every Signal wakes all current waiters, who then
// re-check whatever condition they care about. It is the building block for
// barriers and for the dataflow engine's "wait until state changes" loops.
type Condition struct {
	k       *Kernel
	waiters []*Proc
}

// NewCondition creates a condition variable on kernel k.
func NewCondition(k *Kernel) *Condition { return &Condition{k: k} }

// Wait blocks the calling process until the next Signal.
func (c *Condition) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.block()
}

// WaitFor blocks the calling process until pred() is true, re-checking after
// every Signal. If pred is already true it returns immediately.
func (c *Condition) WaitFor(p *Proc, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}

// Signal wakes every process currently waiting on the condition. The wakes
// are scheduled as zero-delay events, preserving deterministic ordering.
func (c *Condition) Signal() {
	waiters := c.waiters
	c.waiters = nil
	for _, p := range waiters {
		c.k.schedule(c.k.now, nil, p)
	}
}
