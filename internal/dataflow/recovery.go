package dataflow

// The recovery layer: fault-tolerant variants of the node loops, used when
// Config.Faults is set. The strict loops in node.go stay untouched so the
// fault-free path is byte-identical to an engine without this file.
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
//     resilient server loop is demand-driven and can serve any iteration by
//     re-reading the partition from disk.
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
	"sort"

	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/workload"
)

// maxRetryAttempts bounds how often a single fetch is retried. At the default
// backoff cap this is many simulated hours of retrying — far beyond any
// recoverable outage — so giving up means the plan made completion
// impossible, and the run ends incomplete instead of scheduling events
// forever.
const maxRetryAttempts = 60

// fetchState is one in-progress input fetch: the targets demanded, what has
// arrived, and the armed retry timer.
type fetchState struct {
	iter     int
	seq      int // guards stale retry ticks
	attempt  int
	prop     *proposal
	targets  []plan.NodeID
	got      map[plan.NodeID]int64
	lastFrom plan.NodeID
	timer    *sim.Timer
}

func (e *Engine) resilient() bool { return e.cfg.Faults != nil }

func (e *Engine) hostDown(h netmodel.HostID) bool {
	return e.cfg.Faults != nil && e.cfg.Faults.HostDown(h)
}

// HostCrashed is the injector's crash callback (scheduler context); the run
// harness (core) schedules the fault plan once and fans each crash out to
// every engine that has started. Every non-client node process on the host
// is killed mid-action, its mailbox is purged and its volatile state — held
// output, buffered messages, barrier bookkeeping — is lost. Forwarders on
// the host die with it, invalidating their forwarding pointers. The host's
// vectors are volatile too.
func (e *Engine) HostCrashed(h netmodel.HostID) {
	for i := 0; i < e.cfg.Tree.NumNodes(); i++ {
		n := e.nodes[plan.NodeID(i)]
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
		if n.fetch != nil && n.fetch.timer != nil {
			n.fetch.timer.Stop()
		}
		n.fetch = nil
		n.seenProps, n.pendProp = nil, nil
	}
	for _, fp := range e.fwds[h] {
		e.k.Kill(fp)
		e.res.Invalidated++
	}
	e.fwds[h] = nil
	delete(e.vecs, h)
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
	for i := 0; i < e.cfg.Tree.NumNodes(); i++ {
		n := e.nodes[plan.NodeID(i)]
		if n.fetch != nil && n.fetch.timer != nil {
			n.fetch.timer.Stop()
		}
		n.fetch = nil
		if n.proc != nil {
			e.k.Kill(n.proc)
			n.proc = nil
		}
		n.alive = false
	}
	// Kill forwarders in sorted host order: map iteration order is random,
	// and Kill schedules kernel events, so an unsorted sweep would give every
	// aborted run a different event sequence (caught by simlint's detrange).
	hosts := make([]netmodel.HostID, 0, len(e.fwds))
	for h := range e.fwds {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		for _, fp := range e.fwds[h] {
			e.k.Kill(fp)
		}
		delete(e.fwds, h)
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
			func(p *sim.Proc) { n.resilientServerLoop(p) })
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
	child.fetch = nil
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
	e.vectors(n.host).recordMove(c, n.host)
	e.res.Reinstantiations++
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindReinstantiated,
			Node: int32(c), Host: int32(n.host), Iter: int32(startIter),
		})
	}
	child.proc = e.spawn(fmt.Sprintf("op%d.%d", c, child.moveSeq),
		func(p *sim.Proc) { child.resilientOperatorLoop(p) })
	child.proc.SetSubsystem(obs.SubsysRecovery)
}

// demandChild sends (or re-sends) the fetch's demand to one producer,
// re-instantiating it first if it is a dead operator.
func (n *node) demandChild(p *sim.Proc, c plan.NodeID, f *fetchState, markLater bool) {
	if !n.e.nodes[c].alive {
		n.reinstantiate(c, f.iter)
	}
	if n.e.tel != nil {
		n.e.k.Emit(telemetry.Event{
			Kind: telemetry.KindDemandSent,
			Node: int32(c), Host: int32(n.host), Peer: int32(n.neighbor[c].host),
			Iter: int32(f.iter),
		})
	}
	env := &envelope{
		kind: kindDemand, iter: f.iter,
		markLater:        markLater,
		consumerCritical: n.critical,
		prop:             f.prop,
	}
	n.send(p, n.neighbor[c], env, n.e.cfg.ControlBytes, sim.PriorityControl)
}

// scheduleRetry arms the fetch's retry timer. The jitter draw happens here,
// in process context and kernel event order, so it is deterministic; the
// timer callback only drops a tick into the node's current mailbox, which the
// fetch loop handles like any other message.
func (n *node) scheduleRetry(f *fetchState) {
	in := n.e.cfg.Faults
	d := in.Retry().Delay(f.attempt, in.Rand())
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
	f := n.fetch
	if f == nil || env.retrySeq != f.seq {
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
	for _, c := range f.targets {
		if _, ok := f.got[c]; ok {
			continue
		}
		n.demandChild(p, c, f, false)
	}
	n.scheduleRetry(f)
}

// runFetch demands every target and blocks until all have delivered,
// retrying on timer ticks, ignoring stale or duplicate data, and buffering
// consumer demands that arrive meanwhile. markFirst is the markLater flag for
// the initial demand wave.
func (n *node) runFetch(p *sim.Proc, f *fetchState, markFirst func(c plan.NodeID) bool) {
	n.fetchSeq++
	f.seq = n.fetchSeq
	f.got = make(map[plan.NodeID]int64, len(f.targets))
	n.fetch = f
	for _, c := range f.targets {
		n.demandChild(p, c, f, markFirst(c))
	}
	n.scheduleRetry(f)
	for len(f.got) < len(f.targets) {
		env := n.recvNew(p)
		switch env.kind {
		case kindData:
			if env.iter != f.iter {
				continue // stale delivery from a superseded fetch
			}
			if _, dup := f.got[env.from]; dup {
				continue // duplicated message
			}
			f.got[env.from] = env.bytes
			f.lastFrom = env.from
		case kindDemand:
			n.pendingMsgs = append(n.pendingMsgs, env)
		case kindRetryTick:
			n.maybeRetry(p, env)
			if n.kind == plan.Client {
				n.maybeCancelSwitch(p, f)
			}
		case kindIterReport:
			if n.kind == plan.Client {
				n.handleIterReport(p, env)
			}
		}
	}
	f.timer.Stop()
	n.fetch = nil
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
func (n *node) maybeCancelSwitch(p *sim.Proc, f *fetchState) {
	e := n.e
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

// resilientProduce is produce with retries: fetch both inputs (tolerating
// drops, duplicates and dead producers), then compose.
func (n *node) resilientProduce(p *sim.Proc, it int) {
	e := n.e
	prop := n.pendProp
	n.pendProp = nil
	fetchStart := e.k.Now()
	f := &fetchState{iter: it, prop: prop, targets: e.cfg.Tree.Node(n.id).Children}
	n.runFetch(p, f, func(c plan.NodeID) bool {
		m := n.lateMark[c]
		n.lateMark[c] = false
		return m
	})
	n.lateMark[f.lastFrom] = true
	// Same gating/CPU-wait lineage as the strict produce: the last-arriving
	// input released the compose, whatever retries it took to get there.
	gateAt := e.k.Now()
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindComposeGated,
			Node: int32(n.id), Host: int32(n.host), Peer: int32(f.lastFrom),
			Iter: int32(it), Bytes: f.got[f.lastFrom], Dur: int64(gateAt - fetchStart),
		})
	}
	sizes := make([]int64, 0, len(f.targets))
	for _, c := range f.targets {
		sizes = append(sizes, f.got[c])
	}
	dur := workload.ComposeDuration(sizes[0], sizes[1], e.cfg.ComposePerPixel)
	e.cfg.Net.Host(n.host).Compute(p, dur)
	now := e.k.Now()
	n.held = &heldData{iter: it, bytes: workload.ComposeBytes(sizes[0], sizes[1]), readyAt: now}
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindOperatorFired,
			Node: int32(n.id), Host: int32(n.host),
			Iter: int32(it), Bytes: n.held.bytes, Dur: int64(dur),
			Wait: int64(now-gateAt) - int64(dur),
		})
	}
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

// resilientOperatorLoop is the fault-tolerant operator lifetime: demand-
// driven rather than iteration-counted, so the operator can serve a consumer
// incarnation that is ahead of it (fast-forward) and re-serve one that lost a
// delivery. After the final iteration it lingers, re-serving stragglers,
// until the kernel drains.
func (n *node) resilientOperatorLoop(p *sim.Proc) {
	e := n.e
	it := n.startIter // next expected iteration
	for {
		env := n.nextEnvelope(p)
		switch env.kind {
		case kindDemand:
			d := env.iter
			if d >= e.cfg.Iterations {
				continue
			}
			if d < it {
				if n.lastSent != nil && n.lastSent.iter == d {
					n.reServe(p, env)
					continue
				}
				// The consumer is a restarted incarnation fetching an
				// iteration this operator has already moved past and no
				// longer holds. Rewind and re-produce it: operators are
				// deterministic functions of their inputs, and every
				// producer below can serve any iteration on demand (servers
				// re-read the partition from disk, operators rewind in
				// turn).
			}
			it = d
			n.applySwitchIfDue(p, it)
			if n.held == nil || n.held.iter != it {
				n.resilientProduce(p, it)
			}
			n.sendData(p, env)

			// Relocation window, as in the strict loop (placement region,
			// same as operatorLoop).
			n.applySwitchIfDue(p, it+1)
			if e.windowHook != nil {
				prevRegion := p.EnterRegion(obs.SubsysPlacement)
				if target, move := e.windowHook(p, n.id, it); move && target != n.host {
					n.moveTo(p, target, 0, false)
				}
				p.ExitRegion(prevRegion)
			}
			it++
			if it < e.cfg.Iterations {
				n.resilientProduce(p, it)
			}
		case kindSwitchAt:
			n.applySwitchIfDue(p, it)
		case kindData, kindMoveNotice, kindIterReport, kindRetryTick:
			// Passive effects already applied; ticks here are always stale
			// (no fetch is active between demands).
		}
	}
}

// resilientServerLoop is the fault-tolerant data source: purely demand-
// driven, serving any iteration by (re-)reading the partition from disk, with
// the barrier suspension hardened against lost reports and lost broadcasts.
func (n *node) resilientServerLoop(p *sim.Proc) {
	e := n.e
	images := e.cfg.Images[e.cfg.Tree.Node(n.id).ServerIndex]
	clientAddr := e.nodes[e.cfg.Tree.ClientNode()].address
	for {
		env := n.nextEnvelope(p)
		if env.kind != kindDemand {
			continue // passive effects already applied
		}
		it := env.iter
		if it >= e.cfg.Iterations {
			continue
		}
		if env.prop != nil {
			n.resilientBarrierWait(p, clientAddr(), env.prop.id, it)
		}
		n.applySwitchIfDue(p, it)
		if n.held == nil || n.held.iter != it {
			n.readImage(p, it, images[it].Bytes)
		}
		n.sendData(p, env)
		if it+1 < e.cfg.Iterations && (n.held == nil || n.held.iter != it+1) {
			n.readImage(p, it+1, images[it+1].Bytes)
		}
	}
}

// resilientBarrierWait is the server's barrier participation with healing: on
// first sight of the proposal it reports and suspends until the order
// arrives. Any demand received while suspended means some consumer is
// retrying — so either this server's report or the client's broadcast was
// lost somewhere — and the server re-reports. The demand need not carry the
// proposal: a consumer that already consumed its pending proposal retries
// with prop-less demands, and those were precisely the ones that could
// deadlock the barrier when the original report was dropped.
func (n *node) resilientBarrierWait(p *sim.Proc, client addr, propID, it int) {
	e := n.e
	if n.seenProps == nil {
		n.seenProps = make(map[int]bool)
	}
	if n.seenProps[propID] && !(n.order == nil || n.order.id < propID) {
		return // already past this barrier
	}
	if !n.seenProps[propID] {
		n.seenProps[propID] = true
		rep := &envelope{kind: kindIterReport, iter: it, propID: propID}
		n.send(p, client, rep, e.cfg.ControlBytes, sim.PriorityBarrier)
	}
	for n.order == nil || n.order.id < propID {
		env := n.recvNew(p)
		switch env.kind {
		case kindDemand:
			rep := &envelope{kind: kindIterReport, iter: env.iter, propID: propID}
			n.send(p, client, rep, e.cfg.ControlBytes, sim.PriorityBarrier)
			n.pendingMsgs = append(n.pendingMsgs, env)
		case kindData:
			n.pendingMsgs = append(n.pendingMsgs, env)
		}
	}
}

// resilientClientLoop drives the computation under faults: each iteration's
// demand is a retried fetch of the root operator, and barrier bookkeeping
// handles duplicate and late reports.
func (n *node) resilientClientLoop(p *sim.Proc) {
	e := n.e
	root := e.cfg.Tree.Root()
	arrivals := make([]sim.Time, 0, e.cfg.Iterations)
	for it := 0; it < e.cfg.Iterations; it++ {
		var prop *proposal
		if e.pendingProposal != nil && e.switchActive == nil &&
			it+e.cfg.Tree.Depth()+1 < e.cfg.Iterations {
			e.proposalSeq++
			prop = &proposal{id: e.proposalSeq, placement: e.pendingProposal}
			e.switchActive = &switchState{prop: prop, reports: make(map[plan.NodeID]int)}
			e.pendingProposal = nil
		} else if e.pendingProposal != nil && it+e.cfg.Tree.Depth()+1 >= e.cfg.Iterations {
			e.pendingProposal = nil // too late in the run: drop
		}
		n.applySwitchIfDue(p, it)
		f := &fetchState{iter: it, prop: prop, targets: []plan.NodeID{root}}
		n.runFetch(p, f, func(plan.NodeID) bool { return true })
		arrivals = append(arrivals, p.Now())
		if rec := e.k.Obs(); rec != nil {
			rec.WorkDone(1) // each arrived image is one progress unit
		}
		if e.tel != nil {
			e.k.Emit(telemetry.Event{
				Kind: telemetry.KindImageArrived,
				Host: int32(n.host), Iter: int32(it), Bytes: f.got[root],
			})
		}
	}
	e.finish(arrivals)
}
