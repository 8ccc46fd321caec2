package sim

import (
	"errors"
	"fmt"
	"time"

	"wadc/internal/obs"
	"wadc/internal/telemetry"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// rather than by draining its event queue.
var ErrStopped = errors.New("sim: stopped")

// errKilled is the sentinel panicked into process coroutines to unwind them
// when the kernel shuts down. It never escapes the package.
var errKilled = errors.New("sim: process killed")

// Option configures a Kernel.
type Option func(*Kernel)

// WithTelemetry installs a structured-event sink; a nil sink installs
// nothing. Multiple sinks accumulate into a fan-out in installation order.
// Telemetry is off by default, and the disabled path costs zero allocations:
// every emission site guards on the nil sink before building its event.
func WithTelemetry(s telemetry.Sink) Option {
	return func(k *Kernel) { k.AddSink(s) }
}

// WithObserver attaches a host-process performance recorder: the kernel
// counts every dispatched event, attributes wall time to the subsystem of
// whatever it dispatches, and pprof-labels process coroutines by subsystem
// and tenant. Observation is off by default and every hook is guarded on
// the nil recorder, so a run without one pays nothing — the same
// guard-before-construct discipline telemetry follows. The recorder only
// ever reads the simulation; it can never change event order, so identical
// seeds produce byte-identical artifacts with observation on or off.
func WithObserver(r *obs.Recorder) Option {
	return func(k *Kernel) { k.obs = r }
}

// Kernel is a deterministic discrete-event scheduler. It owns simulated time,
// the pending-event queue, and all process coroutines. A Kernel must be used
// from a single goroutine (the one calling Run); process coroutines are
// managed internally and run only while the kernel has switched to them.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	events eventQueue
	procs  []*Proc
	tel    telemetry.Sink
	obs    *obs.Recorder // nil unless WithObserver attached a perf recorder

	// tenant is the current tenant register: the tenant tag of whichever
	// process (or timer callback) is executing right now. Emit stamps it
	// onto every event, so a multi-tenant run's telemetry is attributed
	// without each emission site knowing about tenancy. 0 means
	// single-tenant / shared infrastructure.
	tenant int32

	running bool
	stopped bool
	procErr error // first process failure, reported by Run
}

// NewKernel constructs a kernel with the given options.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{}
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// CurrentTenant returns the tenant register: the tenant tag of the process
// or timer callback currently executing (0 outside any tenant's context).
// Shared-model layers (the network's per-tenant accounting) read it instead
// of threading a tenant id through every call.
func (k *Kernel) CurrentTenant() int32 { return k.tenant }

// Pending returns the number of events still queued. After Run drains
// cleanly it is zero; the multi-tenant harness asserts this to prove tenant
// teardown leaked no timers or wake-ups.
func (k *Kernel) Pending() int { return k.events.Len() }

// Scheduled returns the total number of events ever scheduled on this
// kernel (the tie-break sequence counter). It is maintained regardless of
// observation, so benchmarks can report events/sec without attaching a
// recorder.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// Obs returns the attached performance recorder, or nil when host-process
// observation is disabled. Model layers cache this once and guard their
// hooks on the nil check, exactly like Telemetry.
func (k *Kernel) Obs() *obs.Recorder { return k.obs }

// AddSink appends a telemetry sink to the kernel's fan-out; a nil sink,
// nil pointers included, adds nothing. Normally sinks are installed via
// WithTelemetry at construction; AddSink exists so higher layers (e.g. the
// run harness) can attach sinks after building the kernel but before the
// simulation starts.
func (k *Kernel) AddSink(s telemetry.Sink) { k.tel = telemetry.Multi(k.tel, s) }

// Telemetry returns the kernel's telemetry sink, or nil when telemetry is
// disabled. Model layers cache this once and guard their emission sites on
// the nil check so that disabled telemetry costs no allocations.
func (k *Kernel) Telemetry() telemetry.Sink { return k.tel }

// Emit stamps ev with the current simulated time and forwards it to the
// telemetry sink. It is a no-op when telemetry is disabled, but callers on
// hot paths should still guard on Telemetry() != nil before constructing the
// event to keep the disabled path allocation-free.
//
//lint:hotpath
//lint:allocbudget 0 disabled-telemetry is free and enabled sinks preallocate; BENCH sim=4 allocs/op happen in schedule, not here
func (k *Kernel) Emit(ev telemetry.Event) {
	if k.tel == nil {
		return
	}
	ev.At = int64(k.now)
	if ev.Tenant == 0 {
		ev.Tenant = k.tenant
	}
	k.tel.Emit(ev)
}

// schedule inserts an event at absolute time at. Panics if at is in the past:
// simulations cannot rewrite history.
//
//lint:hotpath
//lint:allocbudget 4 one &event node per scheduled callback plus three Sprintf sites on the scheduling-in-the-past panic path
func (k *Kernel) schedule(at Time, fn func(), p *Proc) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	ev := &event{at: at, seq: k.seq, fn: fn, proc: p, tenant: k.tenant}
	if k.obs != nil && fn != nil {
		// Attribute the future callback to the subsystem arming it now
		// (a relocation timer runs as placement, a retry timer as its
		// dataflow engine). Field write only: nothing allocated.
		ev.subsys = k.obs.Current()
	}
	k.seq++
	k.events.push(ev)
	return ev
}

// After schedules fn to run after delay d. The returned Timer can cancel it.
func (k *Kernel) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return &Timer{k: k, ev: k.schedule(k.now.Add(d), fn, nil)}
}

// At schedules fn at absolute simulated time t (clamped to now if earlier).
func (k *Kernel) At(t Time, fn func()) *Timer {
	if t < k.now {
		t = k.now
	}
	return &Timer{k: k, ev: k.schedule(t, fn, nil)}
}

// Every schedules fn every period, starting one period from now, until the
// returned Timer is stopped or the simulation ends. Periodic work such as the
// global placement algorithm's relocation timer uses this.
func (k *Kernel) Every(period time.Duration, fn func()) *Timer {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Timer{k: k, periodic: true}
	var tick func()
	tick = func() {
		fn()
		if !k.stopped && !t.stopped {
			t.ev = k.schedule(k.now.Add(period), tick, nil)
		}
	}
	t.ev = k.schedule(k.now.Add(period), tick, nil)
	return t
}

// Stop halts the simulation: Run returns ErrStopped after the current event
// completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the queue drains, Stop is called,
// or a process panics. It then unwinds every still-blocked process coroutine
// so that no goroutines leak. Run returns the first process error, ErrStopped
// if stopped, or nil on a clean drain.
func (k *Kernel) Run() error { return k.RunUntil(Time(1<<62 - 1)) }

// RunUntil is Run bounded by an end time: events strictly after end are left
// unexecuted and simulated time is advanced to end (unless the queue drained
// earlier). Like Run, it is terminal for process coroutines: any process
// still blocked when the bound is reached is unwound so no goroutines leak;
// only pure callback events survive into a later Run/RunUntil call.
//
// RunUntil is the dispatch loop that owns the simulator's single-writer
// state: the obs region clock, the tenant register, and the mailbox queues
// are only touched from code running synchronously under it (simlint's
// singlewriter analyzer enforces this).
//
//lint:singlewriter region-clock
//lint:singlewriter tenant-register
//lint:singlewriter kernel-mailbox
func (k *Kernel) RunUntil(end Time) error {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	if k.obs != nil {
		// The scheduler loop itself — heap pops, switch overhead — accrues
		// to "sim"; each dispatch switches the region clock to the
		// subsystem of what it dispatches and back. Every wall instant of
		// the loop lands in exactly one bucket, so the report's shares sum
		// to the run time by construction.
		k.obs.SwitchTo(obs.SubsysSim)
		if k.obs.LabelsEnabled() {
			obs.LabelGoroutine(obs.SubsysSim, 0)
		}
	}
	for !k.stopped && k.procErr == nil && k.events.Len() > 0 {
		ev := k.events.pop()
		if ev.cancelled {
			continue
		}
		if ev.at > end {
			k.now = end
			// Put it back for a potential later RunUntil with a larger bound.
			k.events.push(ev)
			break
		}
		k.now = ev.at
		if k.obs != nil {
			k.obs.CountEvent(int64(k.now))
		}
		switch {
		case ev.proc != nil:
			if k.obs != nil {
				k.obs.SwitchTo(ev.proc.subsys)
				k.resume(ev.proc, signalWake)
				k.obs.SwitchTo(obs.SubsysSim)
			} else {
				k.resume(ev.proc, signalWake)
			}
		case ev.fn != nil:
			if k.obs != nil {
				k.obs.SwitchTo(ev.subsys)
			}
			k.tenant = ev.tenant
			ev.fn()
			k.tenant = 0
			if k.obs != nil {
				k.obs.SwitchTo(obs.SubsysSim)
			}
		}
	}
	k.killAll()
	if k.obs != nil {
		// Post-drain work (result assembly, teardown) is harness territory.
		k.obs.SwitchTo(obs.SubsysSetup)
	}
	switch {
	case k.procErr != nil:
		return k.procErr
	case k.stopped:
		return ErrStopped
	default:
		return nil
	}
}

// resume transfers control to p and returns when p yields it back: it
// stores sig on the process and switches to the process's coroutine, which
// runs until its next blocking primitive (or its end) switches back. A
// doomed process (see Kill) is resumed with a kill signal regardless of sig.
//
//lint:hotpath
//lint:allocbudget 0 a coroutine switch is a direct runtime handoff; every process resume runs through here
func (k *Kernel) resume(p *Proc, sig signal) {
	if p.finished {
		return
	}
	if p.doomed {
		sig = signalKill
	}
	// The tenant register follows control: everything the process does —
	// including telemetry emitted from inside its blocking primitives — is
	// attributed to its tenant. The kernel goroutine is suspended inside
	// next while the process runs, so the handoff is race-free.
	k.tenant = p.tenant
	p.sig = sig
	p.next()
	k.tenant = 0
}

// Kill unwinds a single process: the next time the scheduler would resume p
// (an event is scheduled immediately, so at the latest at the current time),
// it receives a kill signal and panics the errKilled sentinel out of its
// blocking primitive, running any deferred cleanups on the way out. Kill
// models a host crash taking its processes down mid-simulation; it must be
// called from scheduler context (a timer callback or another process), never
// from p itself. Killing a finished process is a no-op.
func (k *Kernel) Kill(p *Proc) {
	if p == nil || p.finished || p.doomed {
		return
	}
	p.doomed = true
	if k.tel != nil {
		k.Emit(telemetry.Event{Kind: telemetry.KindProcKilled, Name: p.name, Tenant: p.tenant})
	}
	k.schedule(k.now, nil, p)
}

// killAll unwinds every live process coroutine by resuming it with a kill
// signal, which panics errKilled inside the blocking primitive; the process
// wrapper recovers it and returns, ending the coroutine. A process that never
// ran starts with the kill signal and skips its body. This guarantees Run
// leaves no goroutines behind, per the "never start a goroutine you cannot
// stop" rule.
func (k *Kernel) killAll() {
	for _, p := range k.procs {
		k.resume(p, signalKill)
	}
	k.procs = k.procs[:0]
}

// failProc records a process failure; the first failure aborts Run.
func (k *Kernel) failProc(p *Proc, r any) {
	if k.procErr == nil {
		k.procErr = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
}
