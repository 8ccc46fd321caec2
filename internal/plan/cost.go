package plan

import (
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/trace"
)

// BandwidthFn supplies the bandwidth estimate between two distinct hosts.
// Placement algorithms receive their view of the network through this
// function — typically backed by the monitoring subsystem's caches, so the
// algorithms see measured (possibly stale) values, not ground truth.
//
// An Evaluator, and so one optimiser pass, calls it at most once per ordered
// host pair until the next Reset and treats the answers as a fixed snapshot:
// a function whose answer for a pair changes between calls is seen at its
// first answer.
type BandwidthFn func(a, b netmodel.HostID) trace.Bandwidth

// CostModel holds the per-partition constants used to score placements.
type CostModel struct {
	// Startup is the fixed per-message cost (50 ms in the paper).
	Startup time.Duration
	// DataBytes is the expected size of one data partition (one image,
	// mean 128 KB in the paper).
	DataBytes int64
	// ComputeDur is the cost of one combination operation on a partition
	// (7 µs/pixel × pixels in the paper).
	ComputeDur time.Duration
	// DiskDur is the cost of reading one partition from a server's disk.
	DiskDur time.Duration
}

// DefaultCostModel derives the paper's cost constants for a mean partition
// size (1 byte = 1 pixel, disk at 3 MB/s).
func DefaultCostModel(meanBytes int64) CostModel {
	return CostModel{
		Startup:    netmodel.DefaultStartup,
		DataBytes:  meanBytes,
		ComputeDur: time.Duration(meanBytes) * netmodel.DefaultComposePerPixel,
		DiskDur:    time.Duration(float64(meanBytes) / netmodel.DefaultDiskBandwidth * float64(time.Second)),
	}
}

// EdgeCost returns the expected transfer time of one partition from host a
// to host b: zero when co-located (the entire benefit of placement), start-up
// plus size over bandwidth otherwise.
func (m CostModel) EdgeCost(from, to netmodel.HostID, bw BandwidthFn) float64 {
	if from == to {
		return 0
	}
	b := bw(from, to)
	if b <= 0 {
		b = 1
	}
	return m.Startup.Seconds() + float64(m.DataBytes)/float64(b)
}

// Evaluation is the result of scoring a placement.
type Evaluation struct {
	// Cost is the placement's score: the maximum of the critical-path
	// length and the busiest per-host resource load. The critical path
	// bounds a single partition's latency; the per-iteration resource load
	// (every host has a single NIC that serialises its transfers, a single
	// CPU, a single disk) bounds the pipeline's steady-state throughput —
	// which dominates end-to-end time over 180 partitions.
	Cost float64
	// CriticalPath is the longest server→client path length in seconds.
	CriticalPath float64
	// Bottleneck is the busiest single resource's per-iteration load, and
	// BottleneckHost the host it lives on. When several hosts carry the
	// same load, BottleneckHost is the lowest of their IDs; it is 0 when
	// every load is zero.
	Bottleneck     float64
	BottleneckHost netmodel.HostID
	// Path lists the critical path's nodes from the client down to a server.
	Path []NodeID
	// NodeCost[i] is the accumulated path cost up to and including node i.
	NodeCost []float64
}

// Evaluate scores a placement under the cost model. The evaluation is
// branch-and-bound friendly: bandwidth is queried only for edges whose
// endpoints differ, so a caller counting queries sees only the links the
// algorithm actually needed. It builds a one-off Evaluator; callers scoring
// many placements should keep an Evaluator and Reset it per snapshot.
func (m CostModel) Evaluate(p *Placement, bw BandwidthFn) Evaluation {
	return m.NewEvaluator(p, nil, bw).Evaluate(p)
}

// Evaluator scores placements of one tree against one bandwidth snapshot at
// a time. It keeps the per-host NIC and CPU loads in dense slices indexed by
// host ID and caches every edge cost per ordered host pair, filled lazily on
// first use and dropped by Reset, so scoring a placement allocates nothing
// once the cache is warm, and neither does starting a new snapshot.
//
// Its results are bit-identical to a fresh evaluation with the same
// bandwidths, because it performs the same floating-point operations in the
// same order: edges are visited (and bandwidth first queried) in depth-first
// pre-order, the edge to each child before the child's subtree; NIC loads
// are summed in that pre-order and CPU loads in post-order; every load is
// recomputed from zero for every placement. Ties between equally loaded
// hosts go to the lowest host ID.
//
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	m    CostModel
	tree *Tree
	bw   BandwidthFn
	n    int // host IDs index the dense slices: [0, n)

	// edges lists every node but the client with its parent, in the order
	// a depth-first walk from the client first crosses that edge; nodes
	// lists every node with its children and its CPU charge, children
	// before parents.
	edges []treeEdge
	nodes []treeNode

	cache []edgeSlot // cache[from*n+to]: the edge's cost in this snapshot
	nic   []float64  // per-host NIC load
	cpu   []float64  // per-host CPU load
	up    []float64  // per-node cost of the edge to its parent
	costs []float64  // per-node accumulated path cost

	// Set by Cost for Evaluate.
	critical, bottleneck float64
	bottleneckHost       netmodel.HostID
}

// edgeSlot is one cached edge cost; known is false until the snapshot's
// first query of the edge.
type edgeSlot struct {
	cost  float64
	known bool
}

// treeEdge is one child-to-parent edge of the evaluator's pre-order.
type treeEdge struct{ node, parent NodeID }

// treeNode is one node of the evaluator's post-order: its children and the
// CPU seconds it charges its host (disk for a server, compute for an
// operator, none for the client).
type treeNode struct {
	id   NodeID
	kids []NodeID
	own  float64
}

// NewEvaluator returns an evaluator for placements of start's tree. Every
// placement it scores must be of that tree and put its nodes on hosts no
// larger than the largest ID in hosts and in start. bw is called at most
// once per ordered host pair, on the first placement that needs that edge,
// and must act as a fixed snapshot until the next Reset.
func (m CostModel) NewEvaluator(start *Placement, hosts []netmodel.HostID, bw BandwidthFn) *Evaluator {
	var maxHost netmodel.HostID
	for _, h := range hosts {
		maxHost = max(maxHost, h)
	}
	for _, h := range start.loc {
		maxHost = max(maxHost, h)
	}
	n := int(maxHost) + 1
	t := start.tree
	nodes := t.NumNodes()
	slab := make([]float64, 2*n+2*nodes)
	next := func(size int) []float64 {
		s := slab[:size:size]
		slab = slab[size:]
		return s
	}
	e := &Evaluator{
		m: m, tree: t, bw: bw, n: n,
		edges: make([]treeEdge, 0, nodes-1),
		nodes: make([]treeNode, 0, nodes),
		cache: make([]edgeSlot, n*n),
		nic:   next(n),
		cpu:   next(n),
		up:    next(nodes),
		costs: next(nodes),
	}
	e.walk(t.client)
	return e
}

// walk appends id's subtree to the traversal tables: the edge to each child
// before the child's own subtree, id itself after all of them.
func (e *Evaluator) walk(id NodeID) {
	n := &e.tree.nodes[id]
	for _, c := range n.Children {
		e.edges = append(e.edges, treeEdge{node: c, parent: id})
		e.walk(c)
	}
	var own float64
	switch n.Kind {
	case Operator:
		own = e.m.ComputeDur.Seconds()
	case Server:
		own = e.m.DiskDur.Seconds()
	}
	e.nodes = append(e.nodes, treeNode{id: id, kids: n.Children, own: own})
}

// Reset starts a new bandwidth snapshot: it forgets every cached edge cost,
// so bw is asked again for each pair, in the order the next placements need
// them.
func (e *Evaluator) Reset(bw BandwidthFn) {
	e.bw = bw
	clear(e.cache)
}

// fill queries and caches an edge's cost on its first use in a snapshot.
func (e *Evaluator) fill(s *edgeSlot, from, to netmodel.HostID) {
	s.cost, s.known = e.m.EdgeCost(from, to, e.bw), true
}

// Cost returns p's score, Evaluation.Cost, without building an Evaluation.
// It is the optimiser's per-candidate scorer.
//
//lint:hotpath
//lint:allocbudget 0 every buffer is sized by NewEvaluator and reused for each candidate
func (e *Evaluator) Cost(p *Placement) float64 {
	loc, n := p.loc, e.n
	cache, nic, cpu, up, costs := e.cache, e.nic, e.cpu, e.up, e.costs
	clear(nic)
	clear(cpu)
	for _, r := range e.edges {
		from, to := loc[r.node], loc[r.parent]
		s := &cache[int(from)*n+int(to)]
		if !s.known {
			e.fill(s, from, to)
		}
		ec := s.cost
		up[r.node] = ec
		if ec > 0 {
			// One NIC per host: each remote transfer occupies both
			// endpoints' NICs for its duration.
			nic[from] += ec
			nic[to] += ec
		}
	}
	for _, r := range e.nodes {
		best := 0.0
		for _, c := range r.kids {
			if cc := costs[c] + up[c]; cc > best {
				best = cc
			}
		}
		// The client charges nothing: adding its zero leaves the
		// non-negative load unchanged.
		cpu[loc[r.id]] += r.own
		costs[r.id] = best + r.own
	}
	critical := costs[e.tree.client]
	var bottleneck float64
	var bottleneckHost netmodel.HostID
	cpu = cpu[:len(nic)]
	for h, l := range nic {
		if c := cpu[h]; c > l {
			l = c
		}
		if l > bottleneck {
			bottleneck = l
			bottleneckHost = netmodel.HostID(h)
		}
	}
	e.critical, e.bottleneck, e.bottleneckHost = critical, bottleneck, bottleneckHost
	total := critical
	if bottleneck > total {
		total = bottleneck
	}
	return total
}

// CriticalPath appends to buf the critical path of the placement last
// scored by Cost and returns the extended slice: from the client,
// repeatedly descend into the child that realised the max, down to a
// server.
func (e *Evaluator) CriticalPath(buf []NodeID) []NodeID {
	cur := e.tree.client
	buf = append(buf, cur)
	for {
		kids := e.tree.nodes[cur].Children
		if len(kids) == 0 {
			return buf
		}
		bestChild := NoNode
		bestCost := -1.0
		for _, c := range kids {
			if cc := e.costs[c] + e.up[c]; cc > bestCost {
				bestCost = cc
				bestChild = c
			}
		}
		buf = append(buf, bestChild)
		cur = bestChild
	}
}

// Evaluate scores p and extracts its critical path.
func (e *Evaluator) Evaluate(p *Placement) Evaluation {
	total := e.Cost(p)
	return Evaluation{
		Cost:           total,
		CriticalPath:   e.critical,
		Bottleneck:     e.bottleneck,
		BottleneckHost: e.bottleneckHost,
		// The client, one operator per level, a server.
		Path:     e.CriticalPath(make([]NodeID, 0, e.tree.depth+2)),
		NodeCost: append([]float64(nil), e.costs...),
	}
}
