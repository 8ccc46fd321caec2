// Package netmodel simulates the wide-area network of the paper's
// experiments: a set of hosts forming a complete graph, each host with a
// single network interface ("servers can send or receive at most one message
// at a time"), links whose bandwidth follows a trace, a fixed per-message
// start-up cost (50 ms in the paper), priority messages (barrier messages
// overtake queued data transfers), endpoint congestion and buffering, plus a
// local disk and CPU per host for the workload model.
package netmodel

import (
	"fmt"
	"time"

	"wadc/internal/obs"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// Default model parameters from the paper's experiments (§4).
const (
	// DefaultStartup is the per-message start-up cost.
	DefaultStartup = 50 * time.Millisecond
	// DefaultDiskBandwidth is the server disk bandwidth (3 MB/s).
	DefaultDiskBandwidth = 3 * 1024 * 1024
	// DefaultComposePerPixel is the composition cost per pixel (7 µs).
	DefaultComposePerPixel = 7 * time.Microsecond
)

// HostID identifies a host within a Network.
type HostID int

// Host is a simulated machine: one NIC (capacity-1 resource serialising all
// sends and receives), one CPU and one disk, and a set of named mailboxes
// ("ports") on which processes receive messages.
type Host struct {
	id    HostID
	name  string
	net   *Network
	nic   *sim.Resource
	cpu   *sim.Resource
	disk  *sim.Resource
	ports map[string]*sim.Mailbox
}

// ID returns the host's identifier.
func (h *Host) ID() HostID { return h.id }

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Port returns (creating on first use) the mailbox with the given name.
// Messages addressed to (host, port) are delivered here.
func (h *Host) Port(name string) *sim.Mailbox {
	mb, ok := h.ports[name]
	if !ok {
		mb = sim.NewMailbox(h.net.k, fmt.Sprintf("%s:%s", h.name, name))
		h.ports[name] = mb
	}
	return mb
}

// ReadDisk blocks p while size bytes are read from the host's disk.
func (h *Host) ReadDisk(p *sim.Proc, size int64) {
	d := time.Duration(float64(size) / DefaultDiskBandwidth * float64(time.Second))
	h.disk.Use(p, sim.PriorityData, d)
}

// Compute blocks p while d of CPU work is performed; co-located operators
// contend for the single CPU.
func (h *Host) Compute(p *sim.Proc, d time.Duration) {
	h.cpu.Use(p, sim.PriorityData, d)
}

// Message is a unit of network communication. Payload carries protocol
// content; Piggyback carries monitoring data attached by the observer.
type Message struct {
	Src, Dst HostID
	Port     string
	Size     int64
	Prio     sim.Priority
	Payload  any
	// Piggyback is set by the transfer observer's BeforeSend hook (the
	// monitor attaches its freshest bandwidth measurements here, within its
	// 1 KB budget) and consumed on delivery.
	Piggyback any
	// SentAt is stamped by the network.
	SentAt sim.Time
}

// Observer hooks message transfers; the monitoring subsystem implements it.
type Observer interface {
	// BeforeSend runs when the transfer begins occupying the link (after
	// queueing). It may attach piggyback data.
	BeforeSend(msg *Message)
	// AfterDeliver runs at delivery with the link-level duration (transfer
	// time excluding NIC queueing, including start-up).
	AfterDeliver(msg *Message, linkDuration time.Duration)
}

// Fate is a fault hook's verdict on a completed remote transfer.
type Fate int

// Transfer fates.
const (
	// FateDeliver delivers the message normally.
	FateDeliver Fate = iota
	// FateDrop loses the message after the transfer (the sender has spent
	// the wire time and does not learn of the loss — there are no
	// acknowledgements in this network).
	FateDrop
	// FateDuplicate delivers the message twice (a retransmission artefact).
	FateDuplicate
)

// FaultHook injects deterministic failures into the network. All methods are
// consulted only for remote transfers; local (same-host) deliveries are
// never faulted. The hook must be deterministic given the simulation seed:
// Fate is called exactly once per remote transfer, in kernel event order, so
// an implementation may consume a seeded random stream.
//
// The faults package provides the standard implementation; the hook lives
// here so netmodel stays dependency-free.
type FaultHook interface {
	// HostDown reports whether h is crashed at the current simulated time.
	// Messages completing their transfer while the destination is down are
	// lost.
	HostDown(h HostID) bool
	// CutDuring reports the earliest time in [from, until) at which the link
	// a<->b goes dark, if any. A transfer spanning a cut is aborted at the
	// cut and the message is lost mid-flight.
	CutDuring(a, b HostID, from, until sim.Time) (sim.Time, bool)
	// Fate draws the delivery fate for a completed remote transfer (drop
	// and duplication model lossy WAN paths).
	Fate() Fate
}

// Network is the complete-graph network. Construct with NewNetwork, add
// hosts, then set a bandwidth trace per link.
type Network struct {
	k     *sim.Kernel
	hosts []*Host
	// links[PairIndex(a, b)] is the trace of the link a<->b, nil when unset.
	links     []*trace.Trace
	flatPrio  bool
	observers []Observer
	faults    FaultHook

	// Transfer accounting.
	transfers  int64
	bytesMoved int64

	// Fault accounting (all zero when no FaultHook is installed).
	dropped    int64 // messages lost to a drop fate or a down destination
	duplicated int64 // messages delivered twice
	cut        int64 // transfers aborted by a mid-transfer link blackout

	// Per-tenant accounting (see tenants.go). Lazily allocated; in a
	// single-tenant run everything accrues to tenant 0.
	tenantStats map[int32]*tenantStats
	linkBusy    map[linkTenantKey]int64
}

// NetOption configures a Network.
type NetOption func(*Network)

// WithFlatPriorities makes the network ignore message priorities when
// queueing for NICs and mailboxes (everything is served FIFO). This is the
// ablation of the paper's §2.2 design point that barrier messages must get
// priority so a change-over is not stuck behind large data transfers.
func WithFlatPriorities() NetOption {
	return func(n *Network) { n.flatPrio = true }
}

// NewNetwork creates an empty network on kernel k with default parameters.
func NewNetwork(k *sim.Kernel, opts ...NetOption) *Network {
	n := &Network{k: k}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Kernel returns the owning simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// AddHost creates a host with the given name.
func (n *Network) AddHost(name string) *Host {
	h := &Host{
		id:    HostID(len(n.hosts)),
		name:  name,
		net:   n,
		nic:   sim.NewResource(n.k, name+".nic", 1),
		cpu:   sim.NewResource(n.k, name+".cpu", 1),
		disk:  sim.NewResource(n.k, name+".disk", 1),
		ports: make(map[string]*sim.Mailbox),
	}
	n.hosts = append(n.hosts, h)
	return h
}

// Host returns the host with the given id.
func (n *Network) Host(id HostID) *Host { return n.hosts[id] }

// NumHosts returns the number of hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// Observe registers a transfer observer.
func (n *Network) Observe(o Observer) { n.observers = append(n.observers, o) }

// PairIndex is the dense table slot of the unordered host pair {a, b}:
// b*(b+1)/2 + a with a <= b. It does not depend on the host count, so a
// table indexed by it only grows when a higher host ID first appears, and
// the pairs of hosts below n fill exactly its first n*(n+1)/2 slots. The
// network's link table, the monitor's caches and the optimiser's bandwidth
// snapshots share this layout.
func PairIndex(a, b HostID) int {
	if a > b {
		a, b = b, a
	}
	return int(b)*(int(b)+1)/2 + int(a)
}

// SetLink assigns a bandwidth trace to the (undirected) link between a and b.
func (n *Network) SetLink(a, b HostID, tr *trace.Trace) {
	if a == b {
		panic("netmodel: self-link")
	}
	i := PairIndex(a, b)
	if i >= len(n.links) {
		n.links = append(n.links, make([]*trace.Trace, i+1-len(n.links))...)
	}
	n.links[i] = tr
}

// Link returns the trace for the link between a and b, or nil if unset.
func (n *Network) Link(a, b HostID) *trace.Trace {
	if i := PairIndex(a, b); i < len(n.links) {
		return n.links[i]
	}
	return nil
}

// BandwidthAt returns the ground-truth bandwidth of the link at time t. This
// is the oracle interface: only the monitoring subsystem (probes and passive
// measurement) and tests may use it; placement algorithms see monitored
// values.
func (n *Network) BandwidthAt(a, b HostID, t sim.Time) trace.Bandwidth {
	tr := n.Link(a, b)
	if tr == nil {
		panic(fmt.Sprintf("netmodel: no link %d<->%d", a, b))
	}
	return tr.At(t)
}

// SetFaults installs the fault hook (nil disables fault injection). The
// fault-free path is byte-identical to a network with no hook installed.
func (n *Network) SetFaults(h FaultHook) { n.faults = h }

// Transfers returns the total number of remote message transfers completed.
func (n *Network) Transfers() int64 { return n.transfers }

// BytesMoved returns the total bytes moved over the network.
func (n *Network) BytesMoved() int64 { return n.bytesMoved }

// FaultCounts reports messages lost (dropped or delivered to a crashed
// host), messages duplicated, and transfers aborted by mid-transfer link
// blackouts. All zero unless a FaultHook is installed.
func (n *Network) FaultCounts() (dropped, duplicated, cut int64) {
	return n.dropped, n.duplicated, n.cut
}

// Send performs a blocking message transfer executed by process p: it queues
// for both endpoint NICs (in canonical order, avoiding deadlock between
// crossing transfers), holds them for startup + size/bandwidth(t) integrated
// over the link's trace, releases them and delivers the message to the
// destination port. Local messages (src == dst) are delivered immediately:
// co-locating an operator with its consumer eliminates the network cost,
// which is exactly the effect placement exploits.
//
//lint:hotpath
//lint:allocbudget 3 all three sites are Sprintf on the missing-link panic path; the steady-state path allocates nothing
func (n *Network) Send(p *sim.Proc, msg *Message) {
	// Attribute the whole transfer — including any blocking on NICs — to
	// the network model's obs region. Field writes when no recorder is
	// attached; the restore is deferred so the fault-cut early return and
	// the kill unwind both put the caller's region back.
	prevRegion := p.EnterRegion(obs.SubsysNet)
	defer p.ExitRegion(prevRegion)
	msg.SentAt = n.k.Now()
	prio := msg.Prio
	if n.flatPrio {
		prio = sim.PriorityData
	}
	if msg.Src == msg.Dst {
		for _, o := range n.observers {
			o.BeforeSend(msg)
		}
		for _, o := range n.observers {
			o.AfterDeliver(msg, 0)
		}
		n.deliver(msg, prio)
		return
	}
	tr := n.Link(msg.Src, msg.Dst)
	if tr == nil {
		panic(fmt.Sprintf("netmodel: send over missing link %d->%d", msg.Src, msg.Dst))
	}
	src, dst := n.hosts[msg.Src], n.hosts[msg.Dst]

	// Acquire both NICs in host-ID order: a transfer is a rendezvous of the
	// two endpoints ("a single network interface — they can send or receive
	// at most one message at a time"). Canonical ordering prevents deadlock
	// between crossing transfers; priority lets barrier messages overtake
	// queued bulk data at each NIC.
	first, second := src, dst
	if first.id > second.id {
		first, second = second, first
	}
	// The sender process can be killed (host crash) while queueing or
	// mid-transfer; the deferred cleanup frees whatever it still holds so the
	// peer's NIC is not wedged forever. On the normal path both flags are
	// cleared before the explicit releases below, keeping the event order
	// identical to a fault-free network.
	var heldFirst, heldSecond bool
	defer func() {
		if heldSecond {
			second.nic.Release()
		}
		if heldFirst {
			first.nic.Release()
		}
	}()
	first.nic.Acquire(p, prio)
	heldFirst = true
	second.nic.Acquire(p, prio)
	heldSecond = true

	// Both NICs are held: everything since SentAt was NIC queue wait, a
	// phase distinct from the per-message startup below.
	queueWait := int64(n.k.Now() - msg.SentAt)
	if tel := n.k.Telemetry(); tel != nil {
		n.k.Emit(telemetry.Event{
			Kind: telemetry.KindTransferStart,
			Host: int32(msg.Src), Peer: int32(msg.Dst),
			Bytes: msg.Size, Prio: int8(msg.Prio), Name: msg.Port,
			Wait: queueWait,
		})
	}
	for _, o := range n.observers {
		o.BeforeSend(msg)
	}
	wireStart := n.k.Now()
	dur := DefaultStartup + tr.TransferDuration(wireStart.Add(DefaultStartup), msg.Size)
	if n.faults != nil {
		if at, ok := n.faults.CutDuring(msg.Src, msg.Dst, n.k.Now(), n.k.Now().Add(dur)); ok {
			// The link goes dark before the transfer completes: the endpoints
			// stay busy until the cut (at least the start-up cost — the
			// sender tries), then the message is lost in flight.
			failAt := at
			if min := n.k.Now().Add(DefaultStartup); failAt < min {
				failAt = min
			}
			p.HoldUntil(failAt)
			heldSecond = false
			second.nic.Release()
			heldFirst = false
			first.nic.Release()
			n.cut++
			n.accountCut(msg, time.Duration(failAt-wireStart))
			if tel := n.k.Telemetry(); tel != nil {
				n.k.Emit(telemetry.Event{
					Kind: telemetry.KindTransferCut,
					Host: int32(msg.Src), Peer: int32(msg.Dst),
					Bytes: msg.Size, Prio: int8(msg.Prio), Name: msg.Port,
					Dur:  int64(failAt - wireStart),
					Wait: queueWait, Startup: int64(DefaultStartup),
				})
			}
			return
		}
	}
	p.Hold(dur)

	heldSecond = false
	second.nic.Release()
	heldFirst = false
	first.nic.Release()

	n.transfers++
	n.bytesMoved += msg.Size
	n.accountTransfer(msg, dur)
	if tel := n.k.Telemetry(); tel != nil {
		n.k.Emit(telemetry.Event{
			Kind: telemetry.KindTransferEnd,
			Host: int32(msg.Src), Peer: int32(msg.Dst),
			Bytes: msg.Size, Prio: int8(msg.Prio), Name: msg.Port,
			Dur:  int64(dur), // legacy total: startup + payload
			Wait: queueWait, Startup: int64(DefaultStartup),
			Value: float64(n.MeasuredBandwidth(msg.Size, dur)),
		})
	}
	for _, o := range n.observers {
		o.AfterDeliver(msg, dur)
	}
	if n.faults != nil {
		if n.faults.HostDown(msg.Dst) {
			// The destination crashed while the message was on the wire.
			n.dropped++
			n.emitDrop(msg, "host-down")
			return
		}
		switch n.faults.Fate() {
		case FateDrop:
			n.dropped++
			n.emitDrop(msg, "drop")
			return
		case FateDuplicate:
			n.duplicated++
			if tel := n.k.Telemetry(); tel != nil {
				n.k.Emit(telemetry.Event{
					Kind: telemetry.KindMessageDuplicated,
					Host: int32(msg.Src), Peer: int32(msg.Dst),
					Bytes: msg.Size, Name: msg.Port,
				})
			}
			n.deliver(msg, prio)
		}
	}
	n.deliver(msg, prio)
}

// emitDrop reports a lost message (fault fate or crashed destination).
func (n *Network) emitDrop(msg *Message, cause string) {
	if n.k.Telemetry() == nil {
		return
	}
	n.k.Emit(telemetry.Event{
		Kind: telemetry.KindMessageDropped,
		Host: int32(msg.Src), Peer: int32(msg.Dst),
		Bytes: msg.Size, Name: msg.Port, Aux: cause,
	})
}

//lint:hotpath
//lint:allocbudget 0 delivery reuses the in-flight message; BENCH netmodel=5 allocs/op come from message construction upstream
func (n *Network) deliver(msg *Message, prio sim.Priority) {
	n.hosts[msg.Dst].Port(msg.Port).Send(msg, prio)
}

// MeasuredBandwidth converts an observed link duration for a message of the
// given size into an application-level bandwidth estimate, excluding the
// known start-up cost (the paper's traces were likewise computed from timed
// 16 KB round trips).
func (n *Network) MeasuredBandwidth(size int64, linkDuration time.Duration) trace.Bandwidth {
	payload := linkDuration - DefaultStartup
	if payload <= 0 {
		return 0
	}
	return trace.Bandwidth(float64(size) / payload.Seconds())
}

// TruthWindow returns the ground-truth mean bandwidth of the (a, b) link
// over [from, from+window): the bytes the trace would deliver in that window
// divided by its length. Like BandwidthAt it is an oracle interface — only
// the estimator-accuracy observability layer (internal/estacc) and tests may
// use it; placement algorithms see monitored values. It allocates nothing,
// so the observability hot path stays zero-alloc when sampling truth.
func (n *Network) TruthWindow(a, b HostID, from sim.Time, window time.Duration) trace.Bandwidth {
	tr := n.Link(a, b)
	if tr == nil {
		panic(fmt.Sprintf("netmodel: no link %d<->%d", a, b))
	}
	if window <= 0 {
		return tr.At(from)
	}
	return trace.Bandwidth(float64(tr.BytesIn(from, window)) / window.Seconds())
}
