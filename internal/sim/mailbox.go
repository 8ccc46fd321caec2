package sim

import (
	"container/heap"

	"wadc/internal/telemetry"
)

// Priority orders competing messages and resource requests. Higher values are
// served first; ties are FIFO. The three levels mirror the paper's protocol:
// bulk data transfers, small control messages (demands, relocations), and
// barrier messages, which the paper explicitly gives the highest priority so
// that a change-over barrier is never stuck behind a large data transfer.
type Priority int

const (
	// PriorityData is the default priority for bulk data messages.
	PriorityData Priority = 0
	// PriorityControl is used for demands and other small control traffic.
	PriorityControl Priority = 1
	// PriorityBarrier is the highest priority, reserved for the global
	// algorithm's change-over barrier messages (paper §2.2).
	PriorityBarrier Priority = 2
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityData:
		return "data"
	case PriorityControl:
		return "control"
	case PriorityBarrier:
		return "barrier"
	default:
		return "unknown"
	}
}

// item is an entry in a priority queue: payload plus ordering key.
type item struct {
	value any
	prio  Priority
	seq   uint64
	index int
}

// prioQueue is a max-heap on (prio, -seq): higher priority first, FIFO within
// a priority level.
type prioQueue []*item

func (q prioQueue) Len() int { return len(q) }
func (q prioQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q prioQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *prioQueue) Push(x any) {
	it := x.(*item)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *prioQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*q = old[:n-1]
	return it
}

// Mailbox is an unbounded, priority-ordered message queue between simulated
// processes. Send never blocks; Recv blocks the calling process until a
// message is available. Within a priority level delivery is FIFO.
type Mailbox struct {
	k       *Kernel
	name    string
	queue   prioQueue
	seq     uint64
	waiters []*Proc
}

// NewMailbox creates a mailbox named name on kernel k. The waiter queue is
// pre-sized: Recv carries a zero allocation budget, so its append must land
// in existing capacity (wakeOne compacts in place to preserve it).
func NewMailbox(k *Kernel, name string) *Mailbox {
	return &Mailbox{k: k, name: name, waiters: make([]*Proc, 0, 4)}
}

// Name returns the mailbox name.
func (m *Mailbox) Name() string { return m.name }

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return m.queue.Len() }

// Send enqueues msg at the given priority and wakes one waiting receiver, if
// any. It is safe to call from scheduler callbacks as well as processes.
//
//lint:hotpath
//lint:allocbudget 1 one &item node per enqueued message; it rides the heap.Push interface
func (m *Mailbox) Send(msg any, prio Priority) {
	if m.k.tel != nil {
		m.k.Emit(telemetry.Event{Kind: telemetry.KindMailboxSend, Name: m.name, Prio: int8(prio)})
	}
	heap.Push(&m.queue, &item{value: msg, prio: prio, seq: m.seq})
	m.seq++
	m.wakeOne()
}

// wakeOne wakes the first still-live waiter, discarding waiters that were
// killed while blocked (their wake would be a lost token and the message
// would strand).
func (m *Mailbox) wakeOne() {
	for len(m.waiters) > 0 {
		p := m.waiters[0]
		// Compact in place rather than re-slicing from the front: slicing
		// strands capacity at the head of the backing array, which forces
		// Recv's append to reallocate and busts its zero allocation budget.
		n := copy(m.waiters, m.waiters[1:])
		m.waiters[n] = nil
		m.waiters = m.waiters[:n]
		if p.finished || p.doomed {
			continue
		}
		m.k.schedule(m.k.now, nil, p)
		return
	}
}

// Recv blocks p until a message is available, then returns the
// highest-priority (FIFO within priority) message.
//
//lint:hotpath
//lint:allocbudget 0 pop and hand-off reuse the queued item; the receive path must stay allocation-free
func (m *Mailbox) Recv(p *Proc) any {
	for m.queue.Len() == 0 {
		m.waiters = append(m.waiters, p)
		p.block()
	}
	it := heap.Pop(&m.queue).(*item)
	if m.k.tel != nil {
		m.k.Emit(telemetry.Event{Kind: telemetry.KindMailboxRecv, Name: m.name, Prio: int8(it.prio)})
	}
	// If messages remain and other receivers are waiting, pass the wake on:
	// Send wakes only one waiter, so without this hand-off a second queued
	// message could strand a second waiter.
	if m.queue.Len() > 0 {
		m.wakeOne()
	}
	return it.value
}

// Drain discards every queued message and returns how many were dropped. A
// host crash purges the mailboxes of the processes it kills: buffered but
// unconsumed messages are memory, and memory is lost.
func (m *Mailbox) Drain() int {
	n := m.queue.Len()
	m.queue = m.queue[:0]
	return n
}
