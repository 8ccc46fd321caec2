package dataflow

import (
	"fmt"
	"slices"

	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/workload"
)

// heldData is a node's buffered output: "Each node in the tree holds its
// output (original data for the servers, processed data for combination
// operators) until its consumer requests it." readyAt is when the output
// became ready (compose end / disk-read end), so a serve can report how long
// the output sat waiting for demand — the idle-demand phase of the causal
// lineage. It survives re-serves and relocations with the buffer.
type heldData struct {
	iter    int
	bytes   int64
	readyAt sim.Time
}

// node is the runtime state of one tree vertex (server, operator or client).
// Exactly one simulated process drives each node; all fields are accessed
// only from that process or from scheduler callbacks, which the kernel
// serialises.
type node struct {
	e       *Engine
	id      plan.NodeID
	kind    plan.Kind
	host    netmodel.HostID
	port    string
	moveSeq int

	pendingMsgs []*envelope
	neighbor    map[plan.NodeID]addr
	held        *heldData

	// Local-algorithm bookkeeping (paper §2.3).
	lateMark         map[plan.NodeID]bool // producer -> mark "later" on next demand
	markedLater      int                  // times our consumer marked us later
	sends            int                  // data messages sent
	consumerCritical bool                 // flag from our latest demand
	critical         bool                 // our own critical-path belief

	// Barrier protocol (paper §2.2).
	order     *switchOrder
	applied   map[int]bool
	seenProps map[int]bool
	pendProp  *proposal

	fetch fetchState // the input fetch; active only while one is in progress

	// Recovery state (see recovery.go). alive is the engine-registry liveness
	// flag consulted by consumers before demanding; proc is the process
	// currently driving the node, killed on host crash.
	alive     bool
	proc      *sim.Proc
	lastSent  *heldData // most recently served output, kept for re-serving
	startIter int       // first iteration of this incarnation
}

func (n *node) address() addr { return addr{host: n.host, port: n.port} }

func (n *node) mailbox() *sim.Mailbox {
	return n.e.cfg.Net.Host(n.host).Port(n.port)
}

// send wraps Network.Send with envelope stamping and piggybacking: a node
// that knows of a pending switch order attaches it so knowledge of the order
// propagates with the data flow (this is what makes the change-over provably
// consistent: any node serving an iteration >= the barrier's maximum report
// has already learned the order from its inputs).
//
//lint:hotpath
//lint:allocbudget 1 the Message node handed to netmodel
func (n *node) send(p *sim.Proc, to addr, env *envelope, size int64, prio sim.Priority) {
	env.from = n.id
	env.fromAddr = n.address()
	if env.order == nil {
		env.order = n.order
	}
	n.e.cfg.Net.Send(p, &netmodel.Message{
		Src: n.host, Dst: to.host, Port: to.port, Size: size, Prio: prio, Payload: env,
	})
}

// nextEnvelope returns the next message for this node, draining the pending
// buffer first. Receive side effects run exactly once per message.
func (n *node) nextEnvelope(p *sim.Proc) *envelope {
	if len(n.pendingMsgs) > 0 {
		env := n.pendingMsgs[0]
		n.pendingMsgs = n.pendingMsgs[1:]
		return env
	}
	return n.recvNew(p)
}

// recvNew receives a fresh message from the mailbox, bypassing the pending
// buffer. Loops that buffer messages for later (produce, the server
// suspension wait) must use this, or they would spin on their own buffer.
func (n *node) recvNew(p *sim.Proc) *envelope {
	msg := n.mailbox().Recv(p).(*netmodel.Message)
	env := msg.Payload.(*envelope)
	n.onReceive(env)
	return env
}

// onReceive applies a message's passive effects: neighbour address refresh,
// later-marks, critical flags, proposal stashing and switch orders.
func (n *node) onReceive(env *envelope) {
	if env.order != nil && (n.order == nil || n.order.id < env.order.id) {
		n.order = env.order
	}
	switch env.kind {
	case kindDemand:
		n.neighbor[env.from] = env.fromAddr
		if env.markLater {
			n.markedLater++
		}
		n.consumerCritical = env.consumerCritical
		if env.prop != nil && n.kind == plan.Operator {
			if n.seenProps == nil {
				n.seenProps = make(map[int]bool)
			}
			if !n.seenProps[env.prop.id] {
				n.seenProps[env.prop.id] = true
				n.pendProp = env.prop
			}
		}
	case kindData, kindMoveNotice:
		n.neighbor[env.from] = env.fromAddr
	}
}

// applySwitchIfDue executes the node's part of a coordinated change-over
// once it is about to process iteration nextIter >= the ordered switch
// iteration: "it switches atomically from the old placement to the new
// placement" (paper §2.2). Operators physically relocate; extraBytes charges
// any held output that has to travel with a catch-up move.
func (n *node) applySwitchIfDue(p *sim.Proc, nextIter int) {
	o := n.order
	if o == nil || n.applied[o.id] || nextIter < o.iter {
		return
	}
	n.applied[o.id] = true
	if n.kind != plan.Operator {
		return
	}
	target := o.placement.Loc(n.id)
	if target == n.host {
		return
	}
	var extra int64
	if n.held != nil {
		extra = n.held.bytes
	}
	n.moveTo(p, target, extra, true)
}

// moveTo physically relocates the node: state transfer to the target host,
// mailbox re-binding under a fresh incarnation port, a MoveNotice to the
// consumer, and a forwarder draining the old mailbox — so an in-flight
// demand addressed to the old incarnation is bounced to the new one rather
// than lost.
func (n *node) moveTo(p *sim.Proc, target netmodel.HostID, extraBytes int64, barrier bool) {
	e := n.e
	if e.hostDown(target) {
		// The policy (or a stale switch order) points at a crashed host:
		// stay put rather than relocating into the outage.
		return
	}
	oldHost := n.host
	oldMB := n.mailbox()

	// State transfer old -> new (the operator's own process performs it; the
	// light-move requirement keeps extraBytes zero on the normal path).
	xfer := "xfer"
	if e.cfg.Tenant != 0 {
		xfer = fmt.Sprintf("t%d.xfer", e.cfg.Tenant)
	}
	e.cfg.Net.Send(p, &netmodel.Message{
		Src: oldHost, Dst: target, Port: xfer,
		Size: DefaultStateBytes + extraBytes, Prio: sim.PriorityControl,
		Payload: &envelope{kind: kindMoveNotice, from: n.id},
	})

	n.moveSeq++
	n.host = target
	n.port = incarnationPort(e.cfg.Tenant, n.id, n.moveSeq)

	// Tell the consumer where we are now; barrier moves use barrier priority
	// so the notice is not stuck behind bulk data.
	prio := sim.PriorityControl
	if barrier {
		prio = sim.PriorityBarrier
	}
	parent := e.cfg.Tree.Node(n.id).Parent
	n.send(p, n.neighbor[parent], &envelope{kind: kindMoveNotice}, DefaultControlBytes, prio)

	e.spawnForwarder(n, oldHost, oldMB)
	e.res.Moves++
	e.res.MoveLog = append(e.res.MoveLog, MoveRecord{
		At: e.k.Now(), Op: n.id, From: oldHost, To: target, Barrier: barrier,
	})
	if e.tel != nil {
		cause := "policy"
		if barrier {
			cause = "barrier"
		}
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindRelocationCommitted,
			Node: int32(n.id), Host: int32(oldHost), Peer: int32(target),
			Bytes: DefaultStateBytes + extraBytes, Aux: cause,
		})
	}
}

// spawnForwarder drains messages arriving at a vacated mailbox and re-sends
// them to the node's current address (mobile-object forwarding pointer). The
// forwarder dies with its host: a crash invalidates the pointer, and senders
// recover through demand retries and registry-based re-instantiation.
func (e *Engine) spawnForwarder(n *node, oldHost netmodel.HostID, mb *sim.Mailbox) {
	fp := e.spawn(fmt.Sprintf("fwd-n%d-%d", n.id, n.moveSeq), func(p *sim.Proc) {
		for {
			msg := mb.Recv(p).(*netmodel.Message)
			if !n.alive {
				// The target died since the pointer was planted: drop rather
				// than deliver into a dead incarnation's mailbox.
				continue
			}
			e.res.Forwarded++
			cur := n.address()
			if e.tel != nil {
				e.k.Emit(telemetry.Event{
					Kind: telemetry.KindForwarderBounce,
					Node: int32(n.id), Host: int32(oldHost), Peer: int32(cur.host),
					Bytes: msg.Size,
				})
			}
			e.cfg.Net.Send(p, &netmodel.Message{
				Src: oldHost, Dst: cur.host, Port: cur.port,
				Size: msg.Size, Prio: msg.Prio, Payload: msg.Payload,
			})
		}
	})
	// Forwarding is recovery machinery, not steady-state dataflow: profile
	// and attribute its wall time accordingly.
	fp.SetSubsystem(obs.SubsysRecovery)
	for int(oldHost) >= len(e.fwds) {
		e.fwds = append(e.fwds, nil)
	}
	e.fwds[oldHost] = append(e.fwds[oldHost], fp)
}

// sendData replies to a demand with the held output.
//
//lint:hotpath
//lint:allocbudget 3 one envelope node per data block plus two Sprintf sites on the nothing-to-send panic path
func (n *node) sendData(p *sim.Proc, demand *envelope) {
	if n.held == nil {
		panic(fmt.Sprintf("dataflow: node %d has nothing to send", n.id))
	}
	if n.e.tel != nil {
		n.e.k.Emit(telemetry.Event{
			Kind: telemetry.KindDataServed,
			Node: int32(n.id), Host: int32(n.host), Peer: int32(demand.fromAddr.host),
			Iter: int32(n.held.iter), Bytes: n.held.bytes,
			Wait: int64(n.e.k.Now() - n.held.readyAt),
		})
	}
	env := &envelope{kind: kindData, iter: n.held.iter, bytes: n.held.bytes}
	n.send(p, demand.fromAddr, env, n.held.bytes, sim.PriorityData)
	n.sends++
	n.lastSent = n.held // kept so a lost delivery can be re-served (recovery)
	n.held = nil
}

// readImage reads iteration it's partition image off the local disk into the
// node's held buffer, recording the source-read causal edge (the leaf end of
// every realized critical path). Dur is the elapsed read time, disk-queue
// wait included.
//
//lint:hotpath
//lint:allocbudget 1 one heldData node per image read: 32 of BENCH dataflow's 1258 allocs/op
func (n *node) readImage(p *sim.Proc, it int, bytes int64) {
	e := n.e
	start := e.k.Now()
	e.cfg.Net.Host(n.host).ReadDisk(p, bytes)
	now := e.k.Now()
	n.held = &heldData{iter: it, bytes: bytes, readyAt: now}
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindSourceRead,
			Node: int32(n.id), Host: int32(n.host),
			Iter: int32(it), Bytes: bytes, Dur: int64(now - start),
		})
	}
}

// fetchState is a node's input fetch: the iteration demanded from its
// producers (the node's children in the tree: an operator's two inputs, the
// client's root operator), what each has delivered, and the armed retry
// timer. It lives on the node and is reset per fetch, so fetching allocates
// nothing; got and arrived are indexed like the children, of which there are
// at most two (the plan tree builders make every operator binary).
type fetchState struct {
	active  bool
	iter    int
	seq     int // monotone per node; guards stale retry ticks
	attempt int
	prop    *proposal
	got     [2]int64 // bytes delivered by each producer
	arrived [2]bool
	last    int // index of the last producer to deliver
	timer   *sim.Timer
}

// stop ends the fetch and disarms its retry timer. The iteration, attempt
// count and deliveries stay readable.
func (f *fetchState) stop() {
	f.timer.Stop()
	f.timer, f.active = nil, false
}

// done reports whether a server or operator loop whose next iteration is
// next has nothing left to do. Without faults nothing is lost, so nothing is
// re-served and the loop returns after the last iteration; under faults it
// lingers, re-serving stragglers, until the kernel drains.
func (e *Engine) done(next int) bool {
	return e.cfg.Faults == nil && next >= e.cfg.Iterations
}

// runFetch demands iteration it from every producer and blocks until all
// have delivered, retrying on timer ticks, ignoring stale or duplicate data,
// and buffering consumer demands that arrive meanwhile. prop, if set, rides
// on every demand of the fetch.
func (n *node) runFetch(p *sim.Proc, it int, prop *proposal) {
	children := n.e.cfg.Tree.Node(n.id).Children
	f := &n.fetch
	f.seq++
	f.active, f.iter, f.attempt, f.prop, f.arrived = true, it, 0, prop, [2]bool{}
	for _, c := range children {
		mark := true // the client's sole producer is trivially the later one
		if n.kind == plan.Operator {
			mark = n.lateMark[c]
			n.lateMark[c] = false
		}
		n.demandChild(p, c, mark)
	}
	n.scheduleRetry()
	for got := 0; got < len(children); {
		env := n.recvNew(p)
		switch env.kind {
		case kindData:
			i := slices.Index(children, env.from)
			if env.iter != it || i < 0 || f.arrived[i] {
				continue // stale delivery from a superseded fetch, or a duplicate
			}
			f.got[i], f.arrived[i], f.last = env.bytes, true, i
			got++
		case kindDemand:
			// The consumer's next demand arrived while we prefetch: buffer.
			n.pendingMsgs = append(n.pendingMsgs, env)
		case kindRetryTick:
			n.maybeRetry(p, env)
			if n.kind == plan.Client {
				n.maybeCancelSwitch(p)
			}
		case kindIterReport:
			if n.kind == plan.Client {
				n.handleIterReport(p, env)
			}
		case kindSwitchAt, kindMoveNotice:
			// Passive effects already applied in onReceive; switch orders
			// are acted on at the next iteration boundary, never mid-fetch.
		}
	}
	f.stop()
}

// demandChild sends (or re-sends) the active fetch's demand to producer c,
// re-instantiating it first if it is a dead operator.
func (n *node) demandChild(p *sim.Proc, c plan.NodeID, markLater bool) {
	f := &n.fetch
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
	n.send(p, n.neighbor[c], env, DefaultControlBytes, sim.PriorityControl)
}

// produce computes the operator's output for iteration it: it demands data
// from both producers ("an operator requests data from its producers only
// after it has dispatched its output to its consumer"), tracks which producer
// delivered later, and composes on the local CPU.
func (n *node) produce(p *sim.Proc, it int) {
	e := n.e
	prop := n.pendProp
	n.pendProp = nil
	fetchStart := e.k.Now()
	n.runFetch(p, it, prop)
	f := &n.fetch
	lastFrom := e.cfg.Tree.Node(n.id).Children[f.last]
	n.lateMark[lastFrom] = true
	// The last-arriving input is the gating input: its arrival is the causal
	// edge that released this compose, whatever retries it took to get
	// there. The fetch span (first demand dispatch to gating arrival) and the
	// CPU-queue wait below complete the lineage from the child's serve to
	// this operator's fire.
	gateAt := e.k.Now()
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindComposeGated,
			Node: int32(n.id), Host: int32(n.host), Peer: int32(lastFrom),
			Iter: int32(it), Bytes: f.got[f.last], Dur: int64(gateAt - fetchStart),
		})
	}
	dur := workload.ComposeDuration(f.got[0], f.got[1])
	e.cfg.Net.Host(n.host).Compute(p, dur)
	now := e.k.Now()
	n.held = &heldData{iter: it, bytes: workload.ComposeBytes(f.got[0], f.got[1]), readyAt: now}
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindOperatorFired,
			Node: int32(n.id), Host: int32(n.host),
			Iter: int32(it), Bytes: n.held.bytes, Dur: int64(dur),
			Wait: int64(now-gateAt) - int64(dur),
		})
	}
}

// operatorLoop is an operator's lifetime: serve each demand from held output
// (producing it first if needed), then (relocation window) possibly move,
// then prefetch the next iteration. The loop is demand-driven rather than
// iteration-counted, so under faults the operator can serve a consumer
// incarnation that is ahead of it (fast-forward) and re-serve one that lost
// a delivery.
func (n *node) operatorLoop(p *sim.Proc) {
	e := n.e
	it := n.startIter // next expected iteration
	for !e.done(it) {
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
				n.produce(p, it)
			}
			n.sendData(p, env)

			// Relocation window: barrier change-over first, then the policy.
			// The hook runs the placement optimiser, so its wall time (and any
			// move it orders) belongs to the placement obs region.
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
				n.produce(p, it)
			}
		case kindSwitchAt:
			n.applySwitchIfDue(p, it)
		case kindData, kindMoveNotice, kindIterReport, kindRetryTick:
			// Passive effects already applied; ticks here are always stale
			// (no fetch is active between demands).
		}
	}
}

// serverLoop is a data source's lifetime: purely demand-driven, it serves
// any iteration by (re-)reading the partition from disk, holds one
// prefetched output, and takes part in barrier change-overs by reporting its
// iteration number and suspending until the client broadcasts the switch
// iteration (paper §2.2).
func (n *node) serverLoop(p *sim.Proc) {
	e := n.e
	images := e.cfg.Images[e.cfg.Tree.Node(n.id).ServerIndex]
	clientAddr := e.nodes[e.cfg.Tree.ClientNode()].address
	for next := 0; !e.done(next); {
		env := n.nextEnvelope(p)
		if env.kind != kindDemand {
			continue // passive effects already applied
		}
		it := env.iter
		if it >= e.cfg.Iterations {
			continue
		}
		if env.prop != nil {
			n.barrierWait(p, clientAddr(), env.prop.id, it)
		}
		n.applySwitchIfDue(p, it)
		if n.held == nil || n.held.iter != it {
			n.readImage(p, it, images[it].Bytes)
		}
		n.sendData(p, env)
		next = it + 1
		if next < e.cfg.Iterations && (n.held == nil || n.held.iter != next) {
			n.readImage(p, next, images[next].Bytes)
		}
	}
}

// barrierWait is the server's barrier participation: on first sight of the
// proposal it reports its iteration to the client and suspends until the
// order arrives. Any demand received while suspended means some consumer is
// retrying — so either this server's report or the client's broadcast was
// lost somewhere — and the server re-reports. The demand need not carry the
// proposal: a consumer that already consumed its pending proposal retries
// with prop-less demands, and those were precisely the ones that could
// deadlock the barrier when the original report was dropped.
func (n *node) barrierWait(p *sim.Proc, client addr, propID, it int) {
	if n.seenProps == nil {
		n.seenProps = make(map[int]bool)
	}
	if n.seenProps[propID] && !(n.order == nil || n.order.id < propID) {
		return // already past this barrier
	}
	if !n.seenProps[propID] {
		n.seenProps[propID] = true
		rep := &envelope{kind: kindIterReport, iter: it, propID: propID}
		n.send(p, client, rep, DefaultControlBytes, sim.PriorityBarrier)
	}
	for n.order == nil || n.order.id < propID {
		env := n.recvNew(p)
		switch env.kind {
		case kindDemand:
			rep := &envelope{kind: kindIterReport, iter: env.iter, propID: propID}
			n.send(p, client, rep, DefaultControlBytes, sim.PriorityBarrier)
			n.pendingMsgs = append(n.pendingMsgs, env)
		case kindData:
			n.pendingMsgs = append(n.pendingMsgs, env)
		}
	}
}

// clientLoop drives the computation: each iteration is one fetch of the
// root operator, recording arrival times, attaching switch proposals to
// demands and running the barrier bookkeeping (collecting server iteration
// reports, broadcasting the switch iteration).
func (n *node) clientLoop(p *sim.Proc) {
	e := n.e
	arrivals := make([]sim.Time, 0, e.cfg.Iterations)
	for it := 0; it < e.cfg.Iterations; it++ {
		var prop *proposal
		// Attach a pending proposal only if it can still reach every server
		// before the run ends (the proposal descends one level per
		// iteration).
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
		n.runFetch(p, it, prop)
		arrivals = append(arrivals, p.Now())
		if rec := e.k.Obs(); rec != nil {
			rec.WorkDone(1) // each arrived image is one progress unit
		}
		if e.tel != nil {
			e.k.Emit(telemetry.Event{
				Kind: telemetry.KindImageArrived,
				Host: int32(n.host), Iter: int32(it), Bytes: n.fetch.got[0],
			})
		}
	}
	e.finish(arrivals)
}

// handleIterReport collects server iteration reports; once every server has
// reported, it computes the maximum iteration and broadcasts the switch
// order to all nodes with barrier priority.
func (n *node) handleIterReport(p *sim.Proc, env *envelope) {
	e := n.e
	st := e.switchActive
	if st == nil || env.propID != st.prop.id {
		// No change-over is collecting this report. If the report answers a
		// proposal whose order was already broadcast, the server evidently
		// lost its copy (report or broadcast dropped): re-send the order
		// directly so the server can leave its suspension. Late and duplicate
		// reports arise only when messages are lost.
		if e.lastOrder != nil && env.propID == e.lastOrder.id {
			n.send(p, e.nodes[env.from].address(),
				&envelope{kind: kindSwitchAt, iter: e.lastOrder.iter, order: e.lastOrder},
				DefaultControlBytes, sim.PriorityBarrier)
		}
		return
	}
	st.reports[env.from] = env.iter
	if len(st.reports) < e.cfg.Tree.NumServers() {
		return
	}
	maxIter := 0
	for _, v := range st.reports {
		if v > maxIter {
			maxIter = v
		}
	}
	// Switch at maxReport + depth + 1: no server has served an iteration
	// beyond maxReport when it suspends, so every data message for an
	// iteration >= maxReport travels post-broadcast and piggybacks the
	// order — guaranteeing each node knows the order before it reaches its
	// own boundary for the switch iteration. This keeps every iteration's
	// data strictly within one placement (the Figure 3 requirement).
	order := &switchOrder{
		id:        st.prop.id,
		iter:      maxIter + e.cfg.Tree.Depth() + 1,
		placement: st.prop.placement,
	}
	st.order = order
	// Broadcast: servers first (they are suspended), then operators, in
	// deterministic id order. The client "knows" operator locations because
	// it computed both placements (the global algorithm has global
	// knowledge); addresses come from the engine registry.
	n.broadcastOrder(p, order)
	e.res.Switches++
}

// broadcastOrder sends a switch order to every server and operator with
// barrier priority and retires the active change-over.
func (n *node) broadcastOrder(p *sim.Proc, order *switchOrder) {
	e := n.e
	if e.tel != nil {
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindBarrierEpoch,
			Node: int32(order.id), Iter: int32(order.iter), Host: int32(n.host),
		})
	}
	targets := append(e.cfg.Tree.Servers(), e.cfg.Tree.Operators()...)
	for _, id := range targets {
		dst := e.nodes[id].address()
		n.send(p, dst, &envelope{kind: kindSwitchAt, iter: order.iter, order: order},
			DefaultControlBytes, sim.PriorityBarrier)
	}
	n.order = order // the client flips its own expectation too
	e.lastOrder = order
	e.switchActive = nil
}
