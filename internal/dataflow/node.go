package dataflow

import (
	"fmt"

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

	// Recovery state (resilient mode only; see recovery.go). alive is the
	// engine-registry liveness flag consulted by consumers before demanding;
	// proc is the process currently driving the node, killed on host crash.
	alive     bool
	proc      *sim.Proc
	lastSent  *heldData   // most recently served output, kept for re-serving
	startIter int         // first iteration of this incarnation
	fetchSeq  int         // monotone fetch counter guarding stale retry ticks
	fetch     *fetchState // in-progress input fetch, nil between fetches
}

func (n *node) address() addr { return addr{host: n.host, port: n.port} }

func (n *node) mailbox() *sim.Mailbox {
	return n.e.cfg.Net.Host(n.host).Port(n.port)
}

// send wraps Network.Send with envelope stamping and piggybacking: host
// vectors always ride along, and a node that knows of a pending switch order
// attaches it so knowledge of the order propagates with the data flow (this
// is what makes the change-over provably consistent: any node serving an
// iteration >= the barrier's maximum report has already learned the order
// from its inputs).
//
//lint:hotpath
//lint:allocbudget 2 the per-hop timestamp vector copy and the Message node handed to netmodel
func (n *node) send(p *sim.Proc, to addr, env *envelope, size int64, prio sim.Priority) {
	env.from = n.id
	env.fromAddr = n.address()
	if env.order == nil {
		env.order = n.order
	}
	env.vecTS, env.vecLoc = n.e.vectors(n.host).snapshot()
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

// onReceive applies a message's passive effects: vector merging, neighbour
// address refresh, later-marks, critical flags, proposal stashing and switch
// orders.
func (n *node) onReceive(env *envelope) {
	if env.vecTS != nil {
		n.e.vectors(n.host).merge(env.vecTS, env.vecLoc)
	}
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

// awaitDemand blocks until the demand for iteration it arrives, handling
// control traffic meanwhile. A switch order arriving here is applied
// immediately (the node is between iterations).
func (n *node) awaitDemand(p *sim.Proc, it int) *envelope {
	for {
		env := n.nextEnvelope(p)
		switch env.kind {
		case kindDemand:
			if env.iter != it {
				panic(fmt.Sprintf("dataflow: node %d expected demand %d, got %d", n.id, it, env.iter))
			}
			return env
		case kindSwitchAt:
			n.applySwitchIfDue(p, it)
		case kindData:
			panic(fmt.Sprintf("dataflow: node %d got data iter %d while awaiting demand %d", n.id, env.iter, it))
		}
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
// vector update at the origin, mailbox re-binding under a fresh incarnation
// port, a MoveNotice to the consumer, and a forwarder draining the old
// mailbox — so an in-flight demand addressed to the old incarnation is
// bounced to the new one rather than lost.
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
		Size: e.cfg.StateBytes + extraBytes, Prio: sim.PriorityControl,
		Payload: &envelope{kind: kindMoveNotice, from: n.id},
	})

	// "The original site updates the corresponding entry in the location
	// vector and increments the corresponding entry in the timestamp vector."
	e.vectors(oldHost).recordMove(n.id, target)

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
	n.send(p, n.neighbor[parent], &envelope{kind: kindMoveNotice}, e.cfg.ControlBytes, prio)

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
			Bytes: e.cfg.StateBytes + extraBytes, Aux: cause,
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
			if e.resilient() && !n.alive {
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
	if n.e.cfg.TrackTransfers {
		n.e.res.DataTransfers = append(n.e.res.DataTransfers, TransferRecord{
			Iter: n.held.iter, From: n.id, To: demand.from,
			FromHost: n.host, ToHost: demand.fromAddr.host,
			Bytes: n.held.bytes, At: n.e.k.Now(),
		})
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

// produce computes the node's output for iteration it: an operator demands
// data from both producers ("an operator requests data from its producers
// only after it has dispatched its output to its consumer"), tracks which
// producer delivered later, and composes on the local CPU.
func (n *node) produce(p *sim.Proc, it int) {
	children := n.e.cfg.Tree.Node(n.id).Children
	prop := n.pendProp
	n.pendProp = nil
	fetchStart := n.e.k.Now()
	for _, c := range children {
		env := &envelope{
			kind: kindDemand, iter: it,
			markLater:        n.lateMark[c],
			consumerCritical: n.critical,
			prop:             prop,
		}
		n.lateMark[c] = false
		if n.e.tel != nil {
			n.e.k.Emit(telemetry.Event{
				Kind: telemetry.KindDemandSent,
				Node: int32(c), Host: int32(n.host), Peer: int32(n.neighbor[c].host),
				Iter: int32(it),
			})
		}
		n.send(p, n.neighbor[c], env, n.e.cfg.ControlBytes, sim.PriorityControl)
	}
	// Operators are binary (plan.Tree validates it), so the input sizes fit
	// a fixed array: no slice to grow per compose.
	var sizes [2]int64
	var got int
	var lastFrom plan.NodeID
	var lastBytes int64
	for got < len(children) {
		env := n.recvNew(p)
		switch env.kind {
		case kindData:
			if env.iter != it {
				panic(fmt.Sprintf("dataflow: node %d got data iter %d during produce %d", n.id, env.iter, it))
			}
			sizes[got] = env.bytes
			got++
			lastFrom = env.from
			lastBytes = env.bytes
		case kindDemand:
			// The consumer's next demand arrived while we prefetch: buffer.
			n.pendingMsgs = append(n.pendingMsgs, env)
		case kindSwitchAt, kindMoveNotice, kindIterReport:
			// Passive effects already applied in onReceive; switch orders
			// are acted on at the next iteration boundary, never mid-fetch.
		}
	}
	n.lateMark[lastFrom] = true
	// The last-arriving input is the gating input: its arrival is the causal
	// edge that released this compose. The fetch span (first demand dispatch
	// to gating arrival) and the CPU-queue wait below complete the lineage
	// from the child's serve to this operator's fire.
	gateAt := n.e.k.Now()
	if n.e.tel != nil {
		n.e.k.Emit(telemetry.Event{
			Kind: telemetry.KindComposeGated,
			Node: int32(n.id), Host: int32(n.host), Peer: int32(lastFrom),
			Iter: int32(it), Bytes: lastBytes, Dur: int64(gateAt - fetchStart),
		})
	}
	dur := workload.ComposeDuration(sizes[0], sizes[1], n.e.cfg.ComposePerPixel)
	n.e.cfg.Net.Host(n.host).Compute(p, dur)
	now := n.e.k.Now()
	n.held = &heldData{iter: it, bytes: workload.ComposeBytes(sizes[0], sizes[1]), readyAt: now}
	if n.e.tel != nil {
		n.e.k.Emit(telemetry.Event{
			Kind: telemetry.KindOperatorFired,
			Node: int32(n.id), Host: int32(n.host),
			Iter: int32(it), Bytes: n.held.bytes, Dur: int64(dur),
			Wait: int64(now-gateAt) - int64(dur),
		})
	}
}

// readImage reads iteration it's partition image off the local disk into the
// node's held buffer, recording the source-read causal edge (the leaf end of
// every realized critical path). Dur is the elapsed read time, disk-queue
// wait included.
//
//lint:hotpath
//lint:allocbudget 1 one heldData node per image read; BENCH dataflow=1906 allocs/op are dominated by per-block envelopes
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

// operatorLoop is an operator's lifetime: serve each iteration's demand from
// held output, then (relocation window) possibly move, then prefetch.
func (n *node) operatorLoop(p *sim.Proc) {
	e := n.e
	for it := 0; it < e.cfg.Iterations; it++ {
		n.applySwitchIfDue(p, it)
		demand := n.awaitDemand(p, it)
		if n.held == nil || n.held.iter != it {
			n.produce(p, it)
		}
		n.sendData(p, demand)

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
		if it+1 < e.cfg.Iterations {
			n.produce(p, it+1)
		}
	}
}

// serverLoop is a data source's lifetime: it reads images off disk, holds
// one prefetched output, and participates in barrier change-overs by
// reporting its iteration number and suspending until the client broadcasts
// the switch iteration (paper §2.2).
func (n *node) serverLoop(p *sim.Proc) {
	e := n.e
	images := e.cfg.Images[e.cfg.Tree.Node(n.id).ServerIndex]
	clientAddr := e.nodes[e.cfg.Tree.ClientNode()].address
	for it := 0; it < e.cfg.Iterations; it++ {
		demand := n.awaitDemand(p, it)
		if demand.prop != nil {
			if n.seenProps == nil {
				n.seenProps = make(map[int]bool)
			}
			if !n.seenProps[demand.prop.id] {
				n.seenProps[demand.prop.id] = true
				rep := &envelope{kind: kindIterReport, iter: it, propID: demand.prop.id}
				n.send(p, clientAddr(), rep, e.cfg.ControlBytes, sim.PriorityBarrier)
				// Suspend until the client's broadcast for this proposal.
				for n.order == nil || n.order.id < demand.prop.id {
					env := n.recvNew(p)
					if env.kind == kindDemand || env.kind == kindData {
						n.pendingMsgs = append(n.pendingMsgs, env)
					}
				}
			}
		}
		n.applySwitchIfDue(p, it)
		if n.held == nil || n.held.iter != it {
			n.readImage(p, it, images[it].Bytes)
		}
		n.sendData(p, demand)
		if it+1 < e.cfg.Iterations {
			n.readImage(p, it+1, images[it+1].Bytes)
		}
	}
}

// clientLoop drives the computation: one demand per iteration, recording
// arrival times, attaching switch proposals to demands and running the
// barrier bookkeeping (collecting server iteration reports, broadcasting the
// switch iteration).
func (n *node) clientLoop(p *sim.Proc) {
	e := n.e
	root := e.cfg.Tree.Root()
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
		env := &envelope{
			kind: kindDemand, iter: it,
			markLater:        true, // sole producer: trivially the later one
			consumerCritical: true, // the root is critical by definition
			prop:             prop,
		}
		if e.tel != nil {
			e.k.Emit(telemetry.Event{
				Kind: telemetry.KindDemandSent,
				Node: int32(root), Host: int32(n.host), Peer: int32(n.neighbor[root].host),
				Iter: int32(it),
			})
		}
		n.send(p, n.neighbor[root], env, e.cfg.ControlBytes, sim.PriorityControl)
		for {
			got := n.nextEnvelope(p)
			if got.kind == kindData {
				if got.iter != it {
					panic(fmt.Sprintf("dataflow: client expected iter %d, got %d", it, got.iter))
				}
				arrivals = append(arrivals, p.Now())
				if rec := e.k.Obs(); rec != nil {
					rec.WorkDone(1) // each arrived image is one progress unit
				}
				if e.tel != nil {
					e.k.Emit(telemetry.Event{
						Kind: telemetry.KindImageArrived,
						Host: int32(n.host), Iter: int32(it), Bytes: got.bytes,
					})
				}
				break
			}
			if got.kind == kindIterReport {
				n.handleIterReport(p, got)
			}
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
	if st == nil || (e.resilient() && env.propID != st.prop.id) {
		// No change-over is collecting this report. If the report answers a
		// proposal whose order was already broadcast, the server evidently
		// lost its copy (report or broadcast dropped): re-send the order
		// directly so the server can leave its suspension (recovery only —
		// duplicate reports cannot occur on the fault-free path).
		if e.resilient() && e.lastOrder != nil && env.propID == e.lastOrder.id {
			n.send(p, e.nodes[env.from].address(),
				&envelope{kind: kindSwitchAt, iter: e.lastOrder.iter, order: e.lastOrder},
				e.cfg.ControlBytes, sim.PriorityBarrier)
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
			e.cfg.ControlBytes, sim.PriorityBarrier)
	}
	n.order = order // the client flips its own expectation too
	e.lastOrder = order
	e.switchActive = nil
}
