package sim

import "wadc/internal/obs"

// event is a scheduled occurrence: at time at, either run fn (a pure callback
// executed in the scheduler's own goroutine) or wake proc (switch to a
// blocked process coroutine).
type event struct {
	at   Time
	seq  uint64 // insertion sequence, breaks ties deterministically
	fn   func()
	proc *Proc
	// tenant is the tenant register captured when the event was scheduled,
	// restored while a pure callback runs so telemetry emitted from timer
	// context is attributed to the tenant that armed the timer. (Process
	// wake-ups take the tenant from the process itself instead.)
	tenant int32
	// subsys is the obs region captured when a pure callback was
	// scheduled, so wall time spent in timer callbacks is attributed to
	// the subsystem that armed the timer. Only written when a recorder is
	// attached; process wake-ups use the process's own region instead.
	subsys obs.Subsystem
	// index within the heap, kept current by every sift so that a
	// cancelled event can be removed in O(log n); -1 once popped.
	index     int
	cancelled bool
}

// eventQueue is a min-heap of events ordered by (at, seq). The seq tie-break
// makes event ordering — and therefore the whole simulation — deterministic
// for a fixed program and seed. The sifts are container/heap's algorithms
// specialised to *event, so no operation boxes an event in an interface.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

// up moves the event at j towards the root until its parent is not later.
func (q eventQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down moves the event at i0 towards the leaves of q[:n] until neither child
// is earlier; it reports whether the event moved.
func (q eventQueue) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

// push inserts an event maintaining heap order.
func (q *eventQueue) push(ev *event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *event {
	n := len(*q) - 1
	q.swap(0, n)
	q.down(0, n)
	return q.truncate()
}

// remove deletes the event at index i.
func (q *eventQueue) remove(i int) {
	n := len(*q) - 1
	if n != i {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	q.truncate()
}

// truncate drops and returns the last event, which a pop or remove has
// just swapped there.
func (q *eventQueue) truncate() *event {
	old := *q
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*q = old[:n]
	return ev
}

// Timer is a handle to a scheduled callback; Stop cancels it if it has not
// yet fired. For periodic timers (Kernel.Every), Stop may be called from
// inside the callback to end the series.
type Timer struct {
	k        *Kernel
	ev       *event
	periodic bool
	stopped  bool
}

// Stop cancels the timer. It reports whether any future callback was
// prevented: true when a pending one-shot was cancelled or a periodic timer
// was ended, false when the timer already fired or was already stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped {
		return false
	}
	t.stopped = true
	cancelled := false
	if t.ev != nil && !t.ev.cancelled && t.ev.index >= 0 {
		t.ev.cancelled = true
		t.k.events.remove(t.ev.index)
		cancelled = true
	}
	return cancelled || t.periodic
}
