package plan

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/trace"
)

// referenceEvaluate is the map-based evaluation the dense Evaluator
// replaced, kept verbatim as the differential oracle: per-host loads live in
// maps, the tree is walked by a recursive closure, and the critical path is
// extracted by re-querying edge costs.
func referenceEvaluate(m CostModel, p *Placement, bw BandwidthFn) Evaluation {
	t := p.tree
	costs := make([]float64, t.NumNodes())
	nicLoad := make(map[netmodel.HostID]float64)
	cpuLoad := make(map[netmodel.HostID]float64)
	var visit func(id NodeID) float64
	visit = func(id NodeID) float64 {
		n := t.Node(id)
		best := 0.0
		for _, c := range n.Children {
			ec := m.EdgeCost(p.loc[c], p.loc[id], bw)
			if ec > 0 {
				// One NIC per host: each remote transfer occupies both
				// endpoints' NICs for its duration.
				nicLoad[p.loc[c]] += ec
				nicLoad[p.loc[id]] += ec
			}
			cc := visit(c) + ec
			if cc > best {
				best = cc
			}
		}
		switch n.Kind {
		case Operator:
			cpuLoad[p.loc[id]] += m.ComputeDur.Seconds()
		case Server:
			cpuLoad[p.loc[id]] += m.DiskDur.Seconds()
		}
		costs[id] = best + m.nodeCost(n)
		return costs[id]
	}
	critical := visit(t.client)
	var bottleneck float64
	var bottleneckHost netmodel.HostID
	for h, l := range nicLoad {
		if c := cpuLoad[h]; c > l {
			l = c
		}
		if l > bottleneck {
			bottleneck = l
			bottleneckHost = h
		}
	}
	for h, l := range cpuLoad {
		if l > bottleneck {
			bottleneck = l
			bottleneckHost = h
		}
	}
	total := critical
	if bottleneck > total {
		total = bottleneck
	}

	// Extract the critical path: from the client, repeatedly descend into
	// the child that realised the max.
	path := []NodeID{t.client}
	cur := t.client
	for {
		n := t.Node(cur)
		if len(n.Children) == 0 {
			break
		}
		bestChild := NoNode
		bestCost := -1.0
		for _, c := range n.Children {
			cc := costs[c] + m.EdgeCost(p.loc[c], p.loc[cur], bw)
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
		CriticalPath:   critical,
		Bottleneck:     bottleneck,
		BottleneckHost: bottleneckHost,
		Path:           path,
		NodeCost:       costs,
	}
}

// nodeCost is the processing cost the reference charges at a node.
func (m CostModel) nodeCost(n *Node) float64 {
	switch n.Kind {
	case Server:
		return m.DiskDur.Seconds()
	case Operator:
		return m.ComputeDur.Seconds()
	default:
		return 0
	}
}

// queryLog wraps a bandwidth matrix and records every query, so two
// evaluators can be compared on the order in which they first need each
// link.
type queryLog struct {
	n     int
	bw    []trace.Bandwidth // bw[a*n+b], drawn per ordered pair
	calls [][2]netmodel.HostID
}

func (q *queryLog) fn(a, b netmodel.HostID) trace.Bandwidth {
	q.calls = append(q.calls, [2]netmodel.HostID{a, b})
	return q.bw[int(a)*q.n+int(b)]
}

// firstQueries returns the distinct unordered host pairs in first-query
// order: the sequence a memoising snapshot (and its monitor probes and audit
// records) would see.
func (q *queryLog) firstQueries() [][2]netmodel.HostID {
	seen := make(map[[2]netmodel.HostID]bool)
	var out [][2]netmodel.HostID
	for _, c := range q.calls {
		k := c
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// tieBandwidths is a small value set, 0 included (floored to 1 B/s), so
// many links share a bandwidth and candidate costs tie exactly.
var tieBandwidths = []trace.Bandwidth{0, 1024, 64 * 1024, 64 * 1024, 1 << 20}

// tieModels are cost models whose constants make exact ties likely.
var tieModels = []CostModel{
	DefaultCostModel(128 * 1024),
	{DataBytes: 1000},
	{Startup: 50 * time.Millisecond, DataBytes: 64 * 1024, ComputeDur: time.Second, DiskDur: time.Second},
}

// randomInstance draws a tree of 2-16 servers, a placement of every node
// over at most 12 hosts, a bandwidth matrix over tieBandwidths and a model.
func randomInstance(rng *rand.Rand, leftDeep bool) (*Placement, CostModel, *queryLog) {
	s := rng.Intn(15) + 2
	tr := CompleteBinary(s)
	if leftDeep {
		tr = LeftDeep(s)
	}
	nHosts := rng.Intn(12) + 1
	sh := make([]netmodel.HostID, s)
	for i := range sh {
		sh[i] = netmodel.HostID(rng.Intn(nHosts))
	}
	p := NewPlacement(tr, sh, netmodel.HostID(rng.Intn(nHosts)))
	for _, op := range tr.Operators() {
		p.SetLoc(op, netmodel.HostID(rng.Intn(nHosts)))
	}
	q := &queryLog{n: nHosts, bw: make([]trace.Bandwidth, nHosts*nHosts)}
	for i := range q.bw {
		q.bw[i] = tieBandwidths[rng.Intn(len(tieBandwidths))]
	}
	return p, tieModels[rng.Intn(len(tieModels))], q
}

// sameEvaluation compares every field the oracle defines deterministically
// with ==: no tolerance, since the dense evaluator must be bit-identical.
// BottleneckHost is left out because the oracle picks among tied hosts in
// map order.
func sameEvaluation(got, want Evaluation) bool {
	return got.Cost == want.Cost && got.CriticalPath == want.CriticalPath &&
		got.Bottleneck == want.Bottleneck &&
		slices.Equal(got.Path, want.Path) && slices.Equal(got.NodeCost, want.NodeCost)
}

// TestEvaluateMatchesReference: CostModel.Evaluate equals the map-based
// oracle exactly and first queries the links in the same order.
func TestEvaluateMatchesReference(t *testing.T) {
	prop := func(seed int64, leftDeep bool) bool {
		p, m, q := randomInstance(rand.New(rand.NewSource(seed)), leftDeep)
		want := referenceEvaluate(m, p, q.fn)
		wantQueries := q.firstQueries()
		q.calls = nil
		got := m.Evaluate(p, q.fn)
		if !sameEvaluation(got, want) {
			t.Logf("seed %d: got %+v, want %+v", seed, got, want)
			return false
		}
		if gotQueries := q.firstQueries(); !slices.Equal(gotQueries, wantQueries) {
			t.Logf("seed %d: first queries %v, want %v", seed, gotQueries, wantQueries)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEvaluatorReuseMatchesReference: one warm Evaluator scoring a sequence
// of placements (single-operator moves, as the optimiser makes them) equals
// a fresh oracle evaluation of each, and its lazily filled cache asks for
// each link exactly when the oracle first does.
func TestEvaluatorReuseMatchesReference(t *testing.T) {
	prop := func(seed int64, leftDeep bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p, m, q := randomInstance(rng, leftDeep)
		hosts := make([]netmodel.HostID, q.n)
		for i := range hosts {
			hosts[i] = netmodel.HostID(i)
		}
		ops := p.tree.Operators()
		var seq []*Placement
		cur := p.Clone()
		for i := 0; i < 20; i++ {
			cur.SetLoc(ops[rng.Intn(len(ops))], hosts[rng.Intn(len(hosts))])
			seq = append(seq, cur.Clone())
		}

		var want []Evaluation
		for _, x := range seq {
			want = append(want, referenceEvaluate(m, x, q.fn))
		}
		wantQueries := q.firstQueries()
		q.calls = nil

		ev := m.NewEvaluator(p, hosts, q.fn)
		for i, x := range seq {
			if i%2 == 0 {
				if got := ev.Cost(x); got != want[i].Cost {
					t.Logf("seed %d step %d: Cost %v, want %v", seed, i, got, want[i].Cost)
					return false
				}
				continue
			}
			if got := ev.Evaluate(x); !sameEvaluation(got, want[i]) {
				t.Logf("seed %d step %d: got %+v, want %+v", seed, i, got, want[i])
				return false
			}
		}
		if gotQueries := q.firstQueries(); !slices.Equal(gotQueries, wantQueries) {
			t.Logf("seed %d: first queries %v, want %v", seed, gotQueries, wantQueries)
			return false
		}
		for i, c := range q.calls {
			if slices.Contains(q.calls[:i], c) {
				t.Logf("seed %d: link %v queried twice", seed, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBottleneckHostLowestID: tied hosts resolve to the lowest ID on every
// call. The 4-server tree puts one operator on host 0, one on host 2 and the
// root at the client (host 4); with uniform bandwidth hosts 0, 2 and 4 each
// carry two transfers' NIC load.
func TestBottleneckHostLowestID(t *testing.T) {
	tr := CompleteBinary(4)
	sh, ch := DefaultHostAssignment(4)
	p := NewPlacement(tr, sh, ch)
	ops := tr.Operators()
	p.SetLoc(ops[0], 0)
	p.SetLoc(ops[1], 2)
	for i := 0; i < 100; i++ {
		ev := simpleModel.Evaluate(p, uniformBW(1000))
		if ev.Bottleneck != 2 || ev.BottleneckHost != 0 {
			t.Fatalf("call %d: bottleneck %v at h%d, want 2 at h0", i, ev.Bottleneck, ev.BottleneckHost)
		}
	}
}

// TestEvaluatorCostZeroAlloc: scoring a candidate on a warmed evaluator
// allocates nothing — the //lint:allocbudget 0 contract on Cost, checked at
// run time.
func TestEvaluatorCostZeroAlloc(t *testing.T) {
	tr := CompleteBinary(8)
	sh, ch := DefaultHostAssignment(8)
	p := NewPlacement(tr, sh, ch)
	hosts := make([]netmodel.HostID, 9)
	for i := range hosts {
		hosts[i] = netmodel.HostID(i)
	}
	ev := DefaultCostModel(128*1024).NewEvaluator(p, hosts, uniformBW(64*1024))
	op := tr.Root()
	for _, h := range hosts { // warm every edge the candidates use
		p.SetLoc(op, h)
		ev.Cost(p)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.SetLoc(op, 3)
		ev.Cost(p)
		p.SetLoc(op, ch)
	})
	if allocs != 0 {
		t.Fatalf("Evaluator.Cost allocated %.1f times per candidate, want 0", allocs)
	}
}

// costSink keeps the benchmarked score live.
var costSink float64

// BenchmarkEvaluate measures one candidate score on a warm evaluator: an
// 8-server complete tree over 9 hosts, the shape the global placer scores
// in every experiment.
func BenchmarkEvaluate(b *testing.B) {
	tr := CompleteBinary(8)
	sh, ch := DefaultHostAssignment(8)
	p := NewPlacement(tr, sh, ch)
	hosts := make([]netmodel.HostID, 9)
	for i := range hosts {
		hosts[i] = netmodel.HostID(i)
	}
	bw := func(a, c netmodel.HostID) trace.Bandwidth {
		return trace.Bandwidth(10000 + 1000*int(a+c)%50000)
	}
	ev := DefaultCostModel(128*1024).NewEvaluator(p, hosts, bw)
	ops := tr.Operators()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		p.SetLoc(op, hosts[i%len(hosts)])
		costSink = ev.Cost(p)
		p.SetLoc(op, ch)
	}
}
