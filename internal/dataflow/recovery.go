package dataflow

// The recovery layer: the mechanics the node loops in node.go call into when
// a fault plan is installed (Config.Faults). Every engine runs the same
// demand-driven loops; without faults no retry timer is armed, no host
// crashes, every producer stays alive and every demand is answered exactly
// once, so none of the code below runs.
//
// Recovery model:
//
//   - Demand retries. Every input fetch (an operator's produce, the client's
//     per-iteration demand) arms a retry timer with exponential backoff and
//     deterministic jitter drawn from the injector's fault stream. A retry
//     re-sends the demand to every producer that has not delivered yet; a
//     producer re-serves its last output idempotently, so dropped demands,
//     dropped data and duplicated messages all converge.
//
//   - Operator re-instantiation. The engine registry's per-node alive flag is
//     a perfect failure detector (the simulator knows the truth); when a
//     consumer demands a dead operator it re-creates it at its own host under
//     a fresh incarnation port, rebuilding the child's neighbour table from
//     the registry. Volatile state is lost: the new incarnation starts at the
//     iteration its consumer is fetching and re-fetches inputs from there.
//
//   - Server respawn. Data sources are pinned to their host (the data lives
//     on its disk), so a recovered host restarts its server processes. The
//     server loop is demand-driven and can serve any iteration by re-reading
//     the partition from disk.
//
//   - Rewind re-production. A surviving operator demanded for an iteration it
//     has already moved past (its consumer is a restarted incarnation) cannot
//     re-serve it from lastSent; it rewinds and re-produces the iteration
//     instead. Operators are deterministic functions of their inputs, so any
//     iteration is regenerable on demand down to the disks.
//
//   - Barrier healing. Iteration reports carry the proposal id; a suspended
//     server re-reports whenever any demand reaches it (a retrying consumer
//     means a report or broadcast was lost somewhere), and the client answers
//     reports for an already-broadcast proposal by re-sending the order
//     point-to-point.
//
//   - Change-over cancellation. If the client's own fetch keeps stalling
//     while a change-over is pending, the barrier itself may be unable to
//     complete (a crash can erase a proposal from a whole subtree, leaving
//     the already-suspended servers waiting for a broadcast that cannot
//     happen). After barrierCancelAfter retry attempts the client cancels:
//     it broadcasts a no-op order (the current placement) under the stuck
//     proposal's id, releasing every suspended server without moving anyone.
//
// Liveness: retry timers are armed only from process context and stopped when
// the fetch completes, so once the client finishes no process schedules new
// events and the kernel drains. If a fault plan makes completion impossible
// (a pinned plan whose server host never recovers), retries give up after
// maxRetryAttempts and the engine aborts — every dataflow process is killed
// so the kernel drains promptly and the run ends incomplete rather than
// scheduling events forever.

import (
	"fmt"

	"wadc/internal/faults"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
)

// maxRetryAttempts bounds how often a single fetch is retried. At the default
// backoff cap this is many simulated hours of retrying — far beyond any
// recoverable outage — so giving up means the plan made completion
// impossible, and the run ends incomplete instead of scheduling events
// forever.
const maxRetryAttempts = 60

func (e *Engine) hostDown(h netmodel.HostID) bool {
	return e.cfg.Faults != nil && e.cfg.Faults.HostDown(h)
}

// HostCrashed is the injector's crash callback (scheduler context); the run
// harness (core) schedules the fault plan once and fans each crash out to
// every engine that has started. Every non-client node process on the host
// is killed mid-action, its mailbox is purged and its volatile state — held
// output, buffered messages, barrier bookkeeping — is lost. Forwarders on
// the host die with it, invalidating their forwarding pointers.
func (e *Engine) HostCrashed(h netmodel.HostID) {
	for _, n := range e.nodes {
		if n.host != h || n.kind == plan.Client {
			continue
		}
		if n.proc != nil {
			e.k.Kill(n.proc)
			n.proc = nil
		}
		n.alive = false
		n.mailbox().Drain()
		n.held, n.lastSent, n.pendingMsgs = nil, nil, nil
		n.fetch.stop()
		n.seenProps, n.pendProp = nil, nil
	}
	if int(h) < len(e.fwds) {
		for _, fp := range e.fwds[h] {
			e.k.Kill(fp)
			e.res.Invalidated++
		}
		e.fwds[h] = nil
	}
}

// abort ends a run that can no longer complete: every dataflow process and
// forwarder is killed and every retry timer stopped, so the kernel drains
// promptly instead of re-scheduling retries (and the periodic processes
// watching the engine) until the end of simulated time.
func (e *Engine) abort() {
	if e.completed || e.aborted {
		return
	}
	e.aborted = true
	if e.tel != nil {
		e.k.Emit(telemetry.Event{Kind: telemetry.KindRunAborted})
	}
	for _, n := range e.nodes {
		n.fetch.stop()
		if n.proc != nil {
			e.k.Kill(n.proc)
			n.proc = nil
		}
		n.alive = false
	}
	// Kill forwarders in ascending host order: Kill schedules kernel events,
	// so the sweep order is part of the run's event sequence.
	for h, fps := range e.fwds {
		for _, fp := range fps {
			e.k.Kill(fp)
		}
		e.fwds[h] = nil
	}
	if e.cfg.OnComplete != nil {
		e.cfg.OnComplete()
	}
}

// HostRecovered is the recovery half of HostCrashed: it restarts the host's
// data sources (their partitions are on disk). Operators do not come back
// on their own: their consumers re-instantiate them on demand.
func (e *Engine) HostRecovered(h netmodel.HostID) {
	if e.completed || e.aborted {
		return
	}
	for _, s := range e.cfg.Tree.Servers() {
		n := e.nodes[s]
		if n.host != h || n.alive {
			continue
		}
		n.alive = true
		n.moveSeq++ // respawn counter for the process name; the port is pinned
		n.proc = e.spawn(fmt.Sprintf("server%d.%d", s, n.moveSeq),
			func(p *sim.Proc) { n.serverLoop(p) })
		n.proc.SetSubsystem(obs.SubsysRecovery)
	}
}

// reinstantiate re-creates a dead operator child at this node's host: fresh
// incarnation port, neighbour table from the registry, volatile state reset,
// and a new process starting at the iteration this node is fetching. Called
// from the consumer's process before (re-)demanding.
func (n *node) reinstantiate(c plan.NodeID, startIter int) {
	e := n.e
	child := e.nodes[c]
	if child.alive || child.kind != plan.Operator {
		return
	}
	child.moveSeq++
	child.host = n.host
	child.port = incarnationPort(e.cfg.Tenant, c, child.moveSeq)
	child.held, child.lastSent, child.pendingMsgs = nil, nil, nil
	child.seenProps, child.pendProp = nil, nil
	child.startIter = startIter
	child.alive = true
	// Inherit the consumer's switch knowledge. An order whose iteration is
	// already past is marked applied: the re-instantiated operator stays at
	// its consumer's host (its ordered target may be the very host that
	// crashed) until the next placement decision moves it.
	child.order = n.order
	if child.order != nil && child.order.iter <= startIter {
		child.applied[child.order.id] = true
	}
	for _, cc := range e.cfg.Tree.Node(c).Children {
		child.neighbor[cc] = e.nodes[cc].address()
	}
	child.neighbor[n.id] = n.address()
	n.neighbor[c] = child.address()
	e.res.Reinstantiations++
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindReinstantiated,
			Node: int32(c), Host: int32(n.host), Iter: int32(startIter),
		})
	}
	child.proc = e.spawn(fmt.Sprintf("op%d.%d", c, child.moveSeq),
		func(p *sim.Proc) { child.operatorLoop(p) })
	child.proc.SetSubsystem(obs.SubsysRecovery)
}

// scheduleRetry arms the active fetch's retry timer, unless the engine has
// no fault plan: without faults nothing is lost, so nothing is retried. The
// jitter draw happens here, in process context and kernel event order, so it
// is deterministic; the timer callback only drops a tick into the node's
// current mailbox, which the fetch loop handles like any other message.
func (n *node) scheduleRetry() {
	in := n.e.cfg.Faults
	if in == nil {
		return
	}
	f := &n.fetch
	d := faults.RetryDelay(f.attempt, in.Rand())
	seq := f.seq
	f.timer = n.e.k.After(d, func() {
		n.mailbox().Send(&netmodel.Message{
			Src: n.host, Dst: n.host, Port: n.port,
			Payload: &envelope{kind: kindRetryTick, retrySeq: seq},
		}, sim.PriorityControl)
	})
}

// maybeRetry handles a retry tick: if it matches the active fetch, re-demand
// every producer that has not delivered and re-arm the timer.
func (n *node) maybeRetry(p *sim.Proc, env *envelope) {
	f := &n.fetch
	if !f.active || env.retrySeq != f.seq {
		return // stale tick from a completed or superseded fetch
	}
	f.attempt++
	if f.attempt > maxRetryAttempts {
		n.e.abort() // the plan made completion impossible; fail fast
		return
	}
	n.e.res.Retries++
	if n.e.tel != nil {
		n.e.k.Emit(telemetry.Event{
			Kind: telemetry.KindRetryScheduled,
			Node: int32(n.id), Host: int32(n.host),
			Iter: int32(f.iter), Value: float64(f.attempt),
		})
	}
	for i, c := range n.e.cfg.Tree.Node(n.id).Children {
		if !f.arrived[i] {
			n.demandChild(p, c, false)
		}
	}
	n.scheduleRetry()
}

// barrierCancelAfter is the number of consecutive retry attempts of the
// client's own fetch after which a still-pending change-over is declared
// stuck and cancelled. At the default backoff this is roughly twenty
// simulated minutes of pipeline stall — far longer than any barrier round
// trip, and well before retries give up entirely.
const barrierCancelAfter = 5

// maybeCancelSwitch releases a change-over that can no longer complete. A
// crash can erase the proposal from a whole subtree (the operator holding it
// died before propagating), so those servers never report while the rest sit
// suspended — and the pipeline stalls through the client's own fetch. The
// cancellation is a no-op order: the stuck proposal's id over the *current*
// placement, so suspended servers resume and nobody moves.
func (n *node) maybeCancelSwitch(p *sim.Proc) {
	e := n.e
	f := &n.fetch
	st := e.switchActive
	if st == nil || f.attempt < barrierCancelAfter {
		return
	}
	iter := f.iter
	for _, v := range st.reports {
		if v > iter {
			iter = v
		}
	}
	order := &switchOrder{
		id:        st.prop.id,
		iter:      iter + e.cfg.Tree.Depth() + 1,
		placement: e.CurrentPlacement(),
	}
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindBarrierCancelled,
			Node: int32(order.id), Iter: int32(order.iter),
		})
	}
	n.broadcastOrder(p, order)
}

// reServe answers a duplicate or stale demand from the last served output, if
// it matches; otherwise the demand is for data this node no longer holds and
// its consumer has already moved on, so it is dropped.
func (n *node) reServe(p *sim.Proc, demand *envelope) {
	if n.lastSent == nil || n.lastSent.iter != demand.iter {
		return
	}
	saved := n.held
	n.held = n.lastSent
	n.sendData(p, demand)
	n.held = saved
}
