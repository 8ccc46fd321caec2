package sim

import (
	"container/heap"
	"fmt"
	"time"

	"wadc/internal/telemetry"
)

// Resource is a counted facility (CSIM "facility"): at most capacity holders
// at a time, with a priority wait queue (FIFO within priority). Hosts' NICs,
// CPUs and disks are Resources with capacity 1.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int
	queue    prioQueue
	seq      uint64
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// InUse returns the current number of holders.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.queue.Len() }

// Acquire blocks p until a unit of the resource is available, honouring
// priority order among waiters. Callers must pair it with Release.
func (r *Resource) Acquire(p *Proc, prio Priority) {
	if r.inUse < r.capacity && r.queue.Len() == 0 {
		r.inUse++
		return
	}
	heap.Push(&r.queue, &item{value: p, prio: prio, seq: r.seq})
	r.seq++
	if r.k.tel != nil {
		r.k.Emit(telemetry.Event{Kind: telemetry.KindResourceWait, Name: r.name, Aux: p.name, Prio: int8(prio)})
	}
	p.block()
	// Our waker granted the unit on our behalf before scheduling the wake.
}

// Release returns one unit and hands it to the highest-priority waiter, if
// any. Safe to call from scheduler callbacks as well as processes.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	r.inUse--
	for r.queue.Len() > 0 && r.inUse < r.capacity {
		next := heap.Pop(&r.queue).(*item).value.(*Proc)
		if next.finished || next.doomed {
			// A waiter killed while queueing (host crash) must not be granted
			// a unit it can never release; drop it and try the next waiter.
			continue
		}
		r.inUse++
		if r.k.tel != nil {
			r.k.Emit(telemetry.Event{Kind: telemetry.KindResourceGrant, Name: r.name, Aux: next.name})
		}
		r.k.schedule(r.k.now, nil, next)
		break
	}
}

// Use acquires the resource, holds it for simulated duration d, and releases
// it — the common "occupy a facility for a service time" pattern.
func (r *Resource) Use(p *Proc, prio Priority, d time.Duration) {
	r.Acquire(p, prio)
	defer r.Release()
	p.Hold(d)
}
