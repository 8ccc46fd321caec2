// Package dataflow executes a data-combination plan as a demand-driven
// data-flow tree over the simulated network, implementing the runtime
// mechanics the paper's placement algorithms rely on:
//
//   - the demand-driven pipeline (each node holds its output until its
//     consumer requests it, and requests new inputs only after dispatching —
//     the "light-move requirement" window in which operators may relocate);
//   - physical operator relocation with state transfer, consumer
//     notification, and forwarding of in-flight messages;
//   - the global algorithm's iteration-numbered barrier change-over with
//     high-priority barrier messages (paper §2.2);
//   - the local algorithm's bookkeeping: "later producer" marks and critical
//     flags carried on demand messages (paper §2.3).
//
// Decision logic (when and where to move) is supplied by the placement
// package through the WindowHook and ProposeSwitch APIs; this package only
// provides faithful mechanics.
package dataflow

import (
	"fmt"
	"time"

	"wadc/internal/faults"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/workload"
)

// Defaults for protocol constants not pinned by the paper.
const (
	// DefaultControlBytes is the wire size of demands, reports, notices and
	// barrier messages: a small header plus the 1 KB monitoring piggyback.
	DefaultControlBytes int64 = 1280
	// DefaultStateBytes is the size of an operator's transferable state —
	// relocation happens only "when the size of their state is small".
	DefaultStateBytes int64 = 4096
)

// WindowHook is the policy callback invoked in every operator's relocation
// window (after it dispatched its output for iter, before it requests new
// inputs). It runs in the operator's own simulated process, so any
// monitoring probes it performs are charged to the operator — "computation
// of the placement is interleaved with the actual computation" (paper §2.3).
// Returning (host, true) relocates the operator to host.
type WindowHook func(p *sim.Proc, op plan.NodeID, iter int) (netmodel.HostID, bool)

// Config assembles a dataflow run.
type Config struct {
	Net     *netmodel.Network
	Tree    *plan.Tree
	Initial *plan.Placement
	// Images[s][i] is server s's i-th partition.
	Images [][]workload.Image
	// Iterations is the number of partitions to combine (<= len(Images[s])).
	Iterations int

	// Faults is the fault plan's injector, or nil for a fault-free run. With
	// it, every input fetch arms a demand-retry timer and server and operator
	// processes linger after the last iteration to re-serve stragglers;
	// without it no timer is armed and those processes return once they
	// have served the last iteration. The node loops are the same either
	// way. The engine does not schedule the injector's crash windows itself:
	// whoever schedules them reports each one through
	// HostCrashed/HostRecovered.
	Faults *faults.Injector

	// Tenant namespaces the engine's mailbox ports and process names and tags
	// every event its processes emit. Tenant 0 (the default) keeps the legacy
	// un-prefixed names, byte-identical to an engine built before multi-
	// tenancy existed.
	Tenant int32

	// OnComplete, when non-nil, is invoked once, in scheduler context, when
	// the engine completes or aborts — the multi-tenant harness's departure
	// hook.
	OnComplete func()
}

// MoveRecord describes one operator relocation.
type MoveRecord struct {
	At       sim.Time
	Op       plan.NodeID
	From, To netmodel.HostID
	Barrier  bool // part of a coordinated (global) change-over
}

// Result summarises a completed run.
type Result struct {
	// Arrivals are the client's image arrival times (one per iteration).
	Arrivals []sim.Time
	// Completion is the arrival time of the last image.
	Completion sim.Time
	// MeanInterarrival is Completion / iterations — the paper reports "the
	// average interarrival time for processed images at the client".
	MeanInterarrival time.Duration
	// Moves counts operator relocations; Switches counts completed barrier
	// change-overs; Forwarded counts messages bounced by forwarders.
	Moves     int
	Switches  int
	Forwarded int
	// MoveLog records every relocation.
	MoveLog []MoveRecord

	// Fault-recovery counters (all zero in a fault-free run).
	Retries          int // demand re-sends by the recovery layer
	Reinstantiations int // operators re-created at their consumer after a crash
	Invalidated      int // forwarding pointers invalidated by host crashes
}

// Engine wires the tree's node processes together over the network.
type Engine struct {
	cfg   Config
	k     *sim.Kernel
	tel   telemetry.Sink // cached kernel sink; nil when telemetry is off
	nodes []*node        // indexed by NodeID

	windowHook WindowHook

	// Barrier state (global algorithm).
	pendingProposal *plan.Placement
	switchActive    *switchState
	proposalSeq     int

	// lastOrder is the most recently broadcast switch order, kept so the
	// recovery layer can re-send it to a server whose copy was lost.
	lastOrder *switchOrder

	// fwds tracks live forwarder processes per host (indexed by HostID,
	// grown on first use), so a crash can invalidate the forwarding pointers
	// that lived there.
	fwds [][]*sim.Proc

	res       Result
	completed bool
	aborted   bool
}

type switchState struct {
	prop    *proposal
	reports map[plan.NodeID]int
	order   *switchOrder
}

// New validates the configuration and builds an engine. Call Start to spawn
// the processes, then run the kernel; Result is valid once the kernel drains.
func New(cfg Config) *Engine {
	if cfg.Net == nil || cfg.Tree == nil || cfg.Initial == nil {
		panic("dataflow: Net, Tree and Initial are required")
	}
	if cfg.Initial.Tree() != cfg.Tree {
		panic("dataflow: Initial placement is for a different tree")
	}
	if len(cfg.Images) != cfg.Tree.NumServers() {
		panic(fmt.Sprintf("dataflow: %d image sequences for %d servers", len(cfg.Images), cfg.Tree.NumServers()))
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = len(cfg.Images[0])
	}
	for s, seq := range cfg.Images {
		if len(seq) < cfg.Iterations {
			panic(fmt.Sprintf("dataflow: server %d has %d images, need %d", s, len(seq), cfg.Iterations))
		}
	}
	t := cfg.Tree
	e := &Engine{
		cfg:   cfg,
		k:     cfg.Net.Kernel(),
		nodes: make([]*node, t.NumNodes()),
	}
	for i := range e.nodes {
		id := plan.NodeID(i)
		n := &node{
			e:        e,
			id:       id,
			kind:     t.Node(id).Kind,
			host:     cfg.Initial.Loc(id),
			port:     basePort(cfg.Tenant, id),
			alive:    true,
			neighbor: make(map[plan.NodeID]addr),
			lateMark: make(map[plan.NodeID]bool),
			applied:  make(map[int]bool),
		}
		e.nodes[id] = n
	}
	// Neighbour tables from the initial placement.
	for _, n := range e.nodes {
		tn := t.Node(n.id)
		for _, c := range tn.Children {
			n.neighbor[c] = e.nodes[c].address()
		}
		if tn.Parent != plan.NoNode {
			n.neighbor[tn.Parent] = e.nodes[tn.Parent].address()
		}
	}
	// The client is on the critical path by definition (paper §2.3: "root of
	// the operator tree is always on the critical path").
	e.nodes[t.ClientNode()].critical = true
	return e
}

// Kernel returns the simulation kernel.
func (e *Engine) Kernel() *sim.Kernel { return e.k }

// Tenant returns the engine's tenant namespace (0 in single-tenant runs).
func (e *Engine) Tenant() int32 { return e.cfg.Tenant }

// procName prefixes a process name with the engine's tenant namespace so
// concurrent tenants' processes stay distinguishable in traces and telemetry.
func (e *Engine) procName(base string) string {
	if e.cfg.Tenant == 0 {
		return base
	}
	return fmt.Sprintf("t%d.%s", e.cfg.Tenant, base)
}

// spawn wraps Kernel.Spawn with the tenant namespace: the name is prefixed
// and the process is tagged with the engine's tenant. Explicit tagging (not
// just register inheritance) matters because crash-recovery spawns happen in
// shared-infrastructure timer context, where the register holds 0.
func (e *Engine) spawn(base string, fn func(p *sim.Proc)) *sim.Proc {
	p := e.k.Spawn(e.procName(base), fn)
	p.SetSubsystem(obs.SubsysDataflow)
	if e.cfg.Tenant != 0 {
		p.SetTenant(e.cfg.Tenant)
	}
	return p
}

// SetWindowHook installs the per-operator relocation-window policy callback.
// Must be called before Start.
func (e *Engine) SetWindowHook(h WindowHook) { e.windowHook = h }

// CurrentHost returns the host a node is currently on.
func (e *Engine) CurrentHost(id plan.NodeID) netmodel.HostID { return e.nodes[id].host }

// CurrentPlacement reconstructs the present operator assignment.
func (e *Engine) CurrentPlacement() *plan.Placement {
	p := e.cfg.Initial.Clone()
	for _, op := range e.cfg.Tree.Operators() {
		p.SetLoc(op, e.nodes[op].host)
	}
	return p
}

// NeighborHost returns where node id currently believes its neighbour nb is.
func (e *Engine) NeighborHost(id, nb plan.NodeID) netmodel.HostID {
	return e.nodes[id].neighbor[nb].host
}

// Counters returns node id's local-algorithm bookkeeping: how many times its
// consumer marked it the later producer, how many data messages it sent, and
// the consumer-critical flag from its most recent demand.
func (e *Engine) Counters(id plan.NodeID) (markedLater, sends int, consumerCritical bool) {
	n := e.nodes[id]
	return n.markedLater, n.sends, n.consumerCritical
}

// ResetCounters zeroes a node's epoch counters (called by the local policy
// at its epoch boundaries).
func (e *Engine) ResetCounters(id plan.NodeID) {
	n := e.nodes[id]
	n.markedLater, n.sends = 0, 0
}

// SetCritical sets a node's own belief that it is on the critical path; the
// flag rides on its subsequent demands so its producers can ground their own
// decision (paper §2.3 step 3). Setting an unchanged flag is a no-op, so the
// telemetry stream records only genuine critical-path transitions.
func (e *Engine) SetCritical(id plan.NodeID, v bool) {
	n := e.nodes[id]
	if n.critical == v {
		return
	}
	n.critical = v
	if e.tel != nil {
		val := 0.0
		if v {
			val = 1.0
		}
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindCriticalChanged,
			Node: int32(id), Host: int32(n.host), Value: val,
		})
	}
}

// Critical returns the node's current critical flag.
func (e *Engine) Critical(id plan.NodeID) bool { return e.nodes[id].critical }

// ProposeSwitch hands the engine a new placement for a coordinated
// change-over; the client attaches it to its next demand (paper §2.2). It
// returns false if a change-over is already in progress or the run finished.
func (e *Engine) ProposeSwitch(pl *plan.Placement) bool {
	if e.switchActive != nil || e.pendingProposal != nil || e.completed {
		return false
	}
	if pl.Equal(e.CurrentPlacement()) {
		return false
	}
	e.pendingProposal = pl
	return true
}

// SwitchInProgress reports whether a barrier change-over is active.
func (e *Engine) SwitchInProgress() bool { return e.switchActive != nil }

// Result returns the run summary; valid once the client has received every
// iteration (i.e. after the kernel drains).
func (e *Engine) Result() Result {
	if !e.completed {
		panic("dataflow: Result before completion")
	}
	return e.res
}

// Completed reports whether the client received all iterations.
func (e *Engine) Completed() bool { return e.completed }

// Aborted reports whether the engine gave up: a fault plan made completion
// impossible and a fetch exhausted its retries. Policy driver processes
// should exit when they see this, exactly as on completion.
func (e *Engine) Aborted() bool { return e.aborted }

// Start spawns a process per server, operator and client, each running its
// demand-driven node loop. Crash and recovery windows are not scheduled
// here: the run harness reports them through HostCrashed/HostRecovered.
func (e *Engine) Start() {
	e.tel = e.k.Telemetry()
	t := e.cfg.Tree
	if e.tel != nil {
		// Record the initial placement so an event log is self-contained.
		for _, s := range t.Servers() {
			e.k.Emit(telemetry.Event{
				Kind: telemetry.KindOperatorPlaced,
				Node: int32(s), Host: int32(e.nodes[s].host), Aux: "server",
			})
		}
		for _, op := range t.Operators() {
			e.k.Emit(telemetry.Event{
				Kind: telemetry.KindOperatorPlaced,
				Node: int32(op), Host: int32(e.nodes[op].host), Aux: "operator",
			})
		}
		cid := t.ClientNode()
		e.k.Emit(telemetry.Event{
			Kind: telemetry.KindOperatorPlaced,
			Node: int32(cid), Host: int32(e.nodes[cid].host), Aux: "client",
		})
	}
	for _, s := range t.Servers() {
		n := e.nodes[s]
		n.proc = e.spawn(fmt.Sprintf("server%d", s), func(p *sim.Proc) { n.serverLoop(p) })
	}
	for _, op := range t.Operators() {
		n := e.nodes[op]
		n.proc = e.spawn(fmt.Sprintf("op%d", op), func(p *sim.Proc) { n.operatorLoop(p) })
	}
	cn := e.nodes[t.ClientNode()]
	cn.proc = e.spawn("client", func(p *sim.Proc) { cn.clientLoop(p) })
}

// finish records completion statistics.
func (e *Engine) finish(arrivals []sim.Time) {
	e.res.Arrivals = arrivals
	if len(arrivals) > 0 {
		e.res.Completion = arrivals[len(arrivals)-1]
		e.res.MeanInterarrival = e.res.Completion.Duration() / time.Duration(len(arrivals))
	}
	e.completed = true
	if e.cfg.OnComplete != nil {
		e.cfg.OnComplete()
	}
}
