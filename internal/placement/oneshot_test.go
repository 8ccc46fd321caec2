package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// referenceOneShotOptimizeAudited is the clone-per-candidate optimiser that
// the in-place search replaced, kept as the differential oracle: every
// candidate is a fresh clone scored by a fresh CostModel.Evaluate. Package
// plan's tests hold CostModel.Evaluate to the map-based evaluation it
// replaced, so the two oracles together pin the optimiser to the old code.
func referenceOneShotOptimizeAudited(initial *plan.Placement, hosts []netmodel.HostID, model plan.CostModel, bw plan.BandwidthFn, d Decision) *plan.Placement {
	cur := initial.Clone()
	first := model.Evaluate(cur, bw)
	d.Path(first.Cost, first.Path)
	curCost := first.Cost
	candidates := 0
	for round := 0; round < maxOneShotRounds; round++ {
		eval := model.Evaluate(cur, bw)
		bestCost := curCost
		var best *plan.Placement
		var bestOp plan.NodeID
		var bestFrom, bestTo netmodel.HostID
		for _, op := range criticalOperators(eval, cur.Tree()) {
			for _, h := range hosts {
				if h == cur.Loc(op) {
					continue
				}
				cand := cur.Clone()
				cand.SetLoc(op, h)
				c := model.Evaluate(cand, bw).Cost
				candidates++
				d.Candidate(op, cur.Loc(op), h, round, c, false)
				if c < bestCost-improvementEps {
					bestCost = c
					best = cand
					bestOp, bestFrom, bestTo = op, cur.Loc(op), h
				}
			}
		}
		if best == nil {
			break
		}
		d.Move(bestOp, bestFrom, bestTo, curCost-bestCost)
		cur = best
		curCost = bestCost
	}
	d.End(curCost, candidates)
	return cur
}

// criticalOperators filters an evaluation's path down to operator nodes, the
// candidates the one-shot algorithm considers moving.
func criticalOperators(e plan.Evaluation, t *plan.Tree) []plan.NodeID {
	out := make([]plan.NodeID, 0, len(e.Path))
	for _, id := range e.Path {
		if t.Node(id).Kind == plan.Operator {
			out = append(out, id)
		}
	}
	return out
}

// optimiseInstance is one random optimiser input: a starting placement, the
// candidate hosts, a model, and one bandwidth snapshot per consecutive
// decision.
type optimiseInstance struct {
	initial *plan.Placement
	hosts   []netmodel.HostID
	model   plan.CostModel
	n       int
	bws     [][]trace.Bandwidth // bws[i][a*n+b]: decision i's snapshot
}

// randomOptimiseInstance draws a tree of 2-16 servers, hosts 0..n-1 for
// n <= 12, a download-all or random starting placement, and for each of
// decisions snapshots bandwidths from a small set that includes 0, so exact
// cost ties occur.
func randomOptimiseInstance(rng *rand.Rand, leftDeep bool, decisions int) optimiseInstance {
	s := rng.Intn(15) + 2
	tree := plan.CompleteBinary(s)
	if leftDeep {
		tree = plan.LeftDeep(s)
	}
	n := rng.Intn(12) + 1
	sh := make([]netmodel.HostID, s)
	for i := range sh {
		sh[i] = netmodel.HostID(rng.Intn(n))
	}
	initial := plan.NewPlacement(tree, sh, netmodel.HostID(rng.Intn(n)))
	if rng.Intn(2) == 0 {
		for _, op := range tree.Operators() {
			initial.SetLoc(op, netmodel.HostID(rng.Intn(n)))
		}
	}
	// The candidate sites: a random non-empty subset of the hosts, in
	// random order.
	var hosts []netmodel.HostID
	for _, h := range rng.Perm(n) {
		if len(hosts) == 0 || rng.Intn(3) > 0 {
			hosts = append(hosts, netmodel.HostID(h))
		}
	}
	levels := []trace.Bandwidth{0, 1024, 64 * 1024, 64 * 1024, 1 << 20}
	bws := make([][]trace.Bandwidth, decisions)
	for i := range bws {
		bw := make([]trace.Bandwidth, n*n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				v := levels[rng.Intn(len(levels))]
				bw[a*n+b], bw[b*n+a] = v, v
			}
		}
		bws[i] = bw
	}
	models := []plan.CostModel{
		plan.DefaultCostModel(128 * 1024),
		{DataBytes: 1000},
		{Startup: 50 * time.Millisecond, DataBytes: 64 * 1024, ComputeDur: time.Second, DiskDur: time.Second},
	}
	return optimiseInstance{initial: initial, hosts: hosts, model: models[rng.Intn(len(models))], n: n, bws: bws}
}

// decideFn runs one optimiser decision from start over one snapshot.
type decideFn func(start *plan.Placement, bw plan.BandwidthFn, d Decision) *plan.Placement

// reference decides with the clone-per-candidate oracle.
func (x optimiseInstance) reference() decideFn {
	return func(start *plan.Placement, bw plan.BandwidthFn, d Decision) *plan.Placement {
		return referenceOneShotOptimizeAudited(start, x.hosts, x.model, bw, d)
	}
}

// optimiser decides with OneShotOptimizeAudited on one evaluator that
// every decision resets, as an Instance's placer does; the first decision
// finds it fresh.
func (x optimiseInstance) optimiser() decideFn {
	ev := x.model.NewEvaluator(x.initial, x.hosts, nil)
	return func(start *plan.Placement, bw plan.BandwidthFn, d Decision) *plan.Placement {
		return OneShotOptimizeAudited(ev, start, x.hosts, bw, d)
	}
}

// auditedRun is what a sequence of audited decisions produced.
type auditedRun struct {
	placements []*plan.Placement // each decision's result
	stats      DecisionStats
	hash       uint64               // FNV hash of the audit stream
	queries    [][2]netmodel.HostID // every decision's first lookups, in order
}

// runAudited runs one decision per snapshot of x as decision records of a
// fresh auditor bound to a recording kernel, each starting from the
// previous decision's result, as the global placer does. Bandwidth goes
// through a per-decision memo that records each link's first lookup on the
// decision, as Instance.AuditedSnapshotBW does, so the audit stream and
// queries pin the order in which links are first needed.
func runAudited(decide decideFn, x optimiseInstance) auditedRun {
	rec := telemetry.NewRecorder()
	var a Auditor
	a.Bind(sim.NewKernel(sim.WithTelemetry(rec)), "global")
	var run auditedRun
	cur := x.initial
	for _, snap := range x.bws {
		d := a.StartDecision(cur.ClientHost(), -1)
		memo := make(map[[2]netmodel.HostID]bool)
		bw := func(ha, hb netmodel.HostID) trace.Bandwidth {
			v := snap[int(ha)*x.n+int(hb)]
			k := [2]netmodel.HostID{min(ha, hb), max(ha, hb)}
			if !memo[k] {
				memo[k] = true
				run.queries = append(run.queries, k)
				d.Bandwidth(k[0], k[1], float64(v), monitor.ProvProbe)
			}
			return v
		}
		cur = decide(cur, bw, d)
		run.placements = append(run.placements, cur)
	}
	run.stats, run.hash = a.Stats(), rec.Hash()
	return run
}

// sameRun reports how got differs from want, or "" when every decision
// chose the same placement after the same candidates, links and records.
func sameRun(got, want auditedRun) string {
	for i := range want.placements {
		if !got.placements[i].Equal(want.placements[i]) {
			return fmt.Sprintf("decision %d: placement %v, want %v", i, got.placements[i], want.placements[i])
		}
	}
	switch {
	case got.stats != want.stats:
		return fmt.Sprintf("stats %+v, want %+v", got.stats, want.stats)
	case !slices.Equal(got.queries, want.queries):
		return fmt.Sprintf("first queries %v, want %v", got.queries, want.queries)
	case got.hash != want.hash:
		return fmt.Sprintf("audit hash %x, want %x", got.hash, want.hash)
	}
	return ""
}

// TestOneShotMatchesReference: the in-place optimiser returns the same
// placement as the clone-per-candidate reference, scores the same number of
// candidates, and emits a decision-audit stream with the same FNV hash —
// same links first queried in the same order, same candidate costs, same
// moves.
func TestOneShotMatchesReference(t *testing.T) {
	prop := func(seed int64, leftDeep bool) bool {
		x := randomOptimiseInstance(rand.New(rand.NewSource(seed)), leftDeep, 1)
		start := x.initial.Clone()
		if diff := sameRun(runAudited(x.optimiser(), x), runAudited(x.reference(), x)); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		if !x.initial.Equal(start) {
			t.Logf("seed %d: optimiser modified its input", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestOneShotReusedEvaluatorMatchesReference: two consecutive decisions on
// one evaluator, each reset to its own snapshot and starting from the
// previous result (the global placer's pattern), match two decisions of the
// clone-per-candidate reference: same placements, candidate counts, first
// queries and audit stream. The second snapshot differs from the first, so
// an edge cost surviving the reset would show.
func TestOneShotReusedEvaluatorMatchesReference(t *testing.T) {
	prop := func(seed int64, leftDeep bool) bool {
		x := randomOptimiseInstance(rand.New(rand.NewSource(seed)), leftDeep, 2)
		if diff := sameRun(runAudited(x.optimiser(), x), runAudited(x.reference(), x)); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestWarmDecisionAllocs pins what a decision on a warm evaluator allocates
// with a silent audit record: the returned placement (its struct and its
// location slice) and nothing else — no evaluator, memo, path or
// Evaluation per decision or round.
func TestWarmDecisionAllocs(t *testing.T) {
	tree := plan.CompleteBinary(8)
	initial := plan.NewPlacement(tree, []netmodel.HostID{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	model := plan.DefaultCostModel(128 * 1024)
	hosts := []netmodel.HostID{0, 1, 2, 3, 4, 5, 6, 7, 8}
	bw := func(a, b netmodel.HostID) trace.Bandwidth {
		return trace.Bandwidth(10000 + 1000*int(a+b)%50000)
	}
	ev := model.NewEvaluator(initial, hosts, nil)
	if got := OneShotOptimizeAudited(ev, initial, hosts, bw, Decision{}); got.Equal(initial) {
		t.Fatal("the decision moved nothing, so it would not exercise a round's path")
	}
	allocs := testing.AllocsPerRun(100, func() {
		OneShotOptimizeAudited(ev, initial, hosts, bw, Decision{})
	})
	if allocs != 2 {
		t.Fatalf("a warm decision allocated %.1f times, want 2 (the returned placement)", allocs)
	}
}
