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
// host pair and treats the answers as a fixed snapshot: a function whose
// answer for a pair changes between calls is seen at its first answer.
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
// many placements against one bandwidth snapshot should keep an Evaluator.
func (m CostModel) Evaluate(p *Placement, bw BandwidthFn) Evaluation {
	return m.NewEvaluator(p, nil, bw).Evaluate(p)
}

// Evaluator scores placements of one tree against one bandwidth snapshot.
// It keeps the per-host NIC and CPU loads in dense slices indexed by host ID
// and caches every edge cost per ordered host pair, filled lazily on first
// use, so scoring a placement allocates nothing once the cache is warm.
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

	compute, disk float64 // per-node CPU charge in seconds

	// preorder lists every node but the client in the order a depth-first
	// walk from the client first crosses its edge to its parent; postorder
	// lists every node with children before parents.
	preorder, postorder []NodeID

	edge  []float64 // edge[from*n+to]: cached EdgeCost, valid where known
	known []bool
	nic   []float64 // per-host NIC load
	cpu   []float64 // per-host CPU load
	up    []float64 // per-node cost of the edge to its parent
	costs []float64 // per-node accumulated path cost

	// Set by Cost for Evaluate.
	critical, bottleneck float64
	bottleneckHost       netmodel.HostID
}

// NewEvaluator returns an evaluator for placements of start's tree. Every
// placement it scores must be of that tree and put its nodes on hosts no
// larger than the largest ID in hosts and in start. bw is called at most
// once per ordered host pair, on the first placement that needs that edge,
// and must act as a fixed snapshot for the evaluator's lifetime.
func (m CostModel) NewEvaluator(start *Placement, hosts []netmodel.HostID, bw BandwidthFn) *Evaluator {
	var maxHost netmodel.HostID
	for _, h := range hosts {
		maxHost = max(maxHost, h)
	}
	for _, h := range start.loc {
		maxHost = max(maxHost, h)
	}
	n := int(maxHost) + 1
	nodes := start.tree.NumNodes()
	slab := make([]float64, n*n+2*n+2*nodes)
	next := func(size int) []float64 {
		s := slab[:size:size]
		slab = slab[size:]
		return s
	}
	e := &Evaluator{
		m: m, tree: start.tree, bw: bw, n: n,
		compute:   m.ComputeDur.Seconds(),
		disk:      m.DiskDur.Seconds(),
		preorder:  make([]NodeID, 0, nodes-1),
		postorder: make([]NodeID, 0, nodes),
		edge:      next(n * n),
		known:     make([]bool, n*n),
		nic:       next(n),
		cpu:       next(n),
		up:        next(nodes),
		costs:     next(nodes),
	}
	e.walk(start.tree.client)
	return e
}

// walk appends id's subtree to the traversal orders: each child to preorder
// before the child's own subtree, id to postorder after all of them.
func (e *Evaluator) walk(id NodeID) {
	for _, c := range e.tree.nodes[id].Children {
		e.preorder = append(e.preorder, c)
		e.walk(c)
	}
	e.postorder = append(e.postorder, id)
}

// edgeCost is EdgeCost through the evaluator's per-pair cache.
func (e *Evaluator) edgeCost(from, to netmodel.HostID) float64 {
	i := int(from)*e.n + int(to)
	if !e.known[i] {
		e.edge[i] = e.m.EdgeCost(from, to, e.bw)
		e.known[i] = true
	}
	return e.edge[i]
}

// Cost returns p's score, Evaluation.Cost, without building an Evaluation.
// It is the optimiser's per-candidate scorer.
//
//lint:hotpath
//lint:allocbudget 0 every buffer is sized by NewEvaluator and reused for each candidate
func (e *Evaluator) Cost(p *Placement) float64 {
	t := e.tree
	loc := p.loc
	clear(e.nic)
	clear(e.cpu)
	for _, c := range e.preorder {
		from, to := loc[c], loc[t.nodes[c].Parent]
		ec := e.edgeCost(from, to)
		e.up[c] = ec
		if ec > 0 {
			// One NIC per host: each remote transfer occupies both
			// endpoints' NICs for its duration.
			e.nic[from] += ec
			e.nic[to] += ec
		}
	}
	for _, id := range e.postorder {
		n := &t.nodes[id]
		best := 0.0
		for _, c := range n.Children {
			if cc := e.costs[c] + e.up[c]; cc > best {
				best = cc
			}
		}
		var own float64
		switch n.Kind {
		case Operator:
			own = e.compute
			e.cpu[loc[id]] += own
		case Server:
			own = e.disk
			e.cpu[loc[id]] += own
		}
		e.costs[id] = best + own
	}
	e.critical = e.costs[t.client]
	e.bottleneck, e.bottleneckHost = 0, 0
	for h, l := range e.nic {
		if c := e.cpu[h]; c > l {
			l = c
		}
		if l > e.bottleneck {
			e.bottleneck = l
			e.bottleneckHost = netmodel.HostID(h)
		}
	}
	total := e.critical
	if e.bottleneck > total {
		total = e.bottleneck
	}
	return total
}

// Evaluate scores p and extracts its critical path: from the client,
// repeatedly descend into the child that realised the max.
func (e *Evaluator) Evaluate(p *Placement) Evaluation {
	total := e.Cost(p)
	t := e.tree
	path := make([]NodeID, 1, t.depth+2) // the client, one operator per level, a server
	path[0] = t.client
	cur := t.client
	for {
		n := t.Node(cur)
		if len(n.Children) == 0 {
			break
		}
		bestChild := NoNode
		bestCost := -1.0
		for _, c := range n.Children {
			cc := e.costs[c] + e.up[c]
			if cc > bestCost {
				bestCost = cc
				bestChild = c
			}
		}
		path = append(path, bestChild)
		cur = bestChild
	}
	return Evaluation{
		Cost:           total,
		CriticalPath:   e.critical,
		Bottleneck:     e.bottleneck,
		BottleneckHost: e.bottleneckHost,
		Path:           path,
		NodeCost:       append([]float64(nil), e.costs...),
	}
}

// CriticalOperators filters an evaluation's path down to operator nodes, the
// candidates the one-shot algorithm considers moving.
func (e Evaluation) CriticalOperators(t *Tree) []NodeID {
	out := make([]NodeID, 0, len(e.Path))
	for _, id := range e.Path {
		if t.Node(id).Kind == Operator {
			out = append(out, id)
		}
	}
	return out
}
