package placement

import (
	"math/rand"
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
		for _, op := range eval.CriticalOperators(cur.Tree()) {
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

// optimiseInstance is one random optimiser input.
type optimiseInstance struct {
	initial *plan.Placement
	hosts   []netmodel.HostID
	model   plan.CostModel
	n       int
	bw      []trace.Bandwidth // bw[a*n+b]
}

// randomOptimiseInstance draws a tree of 2-16 servers, hosts 0..n-1 for
// n <= 12, a download-all or random starting placement, and bandwidths from
// a small set that includes 0, so exact cost ties occur.
func randomOptimiseInstance(rng *rand.Rand, leftDeep bool) optimiseInstance {
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
	bw := make([]trace.Bandwidth, n*n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			v := levels[rng.Intn(len(levels))]
			bw[a*n+b], bw[b*n+a] = v, v
		}
	}
	models := []plan.CostModel{
		plan.DefaultCostModel(128 * 1024),
		{DataBytes: 1000},
		{Startup: 50 * time.Millisecond, DataBytes: 64 * 1024, ComputeDur: time.Second, DiskDur: time.Second},
	}
	return optimiseInstance{initial: initial, hosts: hosts, model: models[rng.Intn(len(models))], n: n, bw: bw}
}

// optimiseFn is the signature shared by the optimiser and its reference.
type optimiseFn func(*plan.Placement, []netmodel.HostID, plan.CostModel, plan.BandwidthFn, Decision) *plan.Placement

// runAudited runs one optimiser pass as a decision on a fresh auditor bound
// to a recording kernel. Bandwidth goes through a memo that records each
// link's first lookup on the decision, as Instance.AuditedSnapshotBW does,
// so the audit stream also pins the order in which links are first needed.
func runAudited(opt optimiseFn, x optimiseInstance) (*plan.Placement, DecisionStats, uint64) {
	rec := telemetry.NewRecorder()
	var a Auditor
	a.Bind(sim.NewKernel(sim.WithTelemetry(rec)), "global")
	d := a.StartDecision(x.initial.ClientHost(), -1)
	memo := make(map[[2]netmodel.HostID]bool)
	bw := func(ha, hb netmodel.HostID) trace.Bandwidth {
		v := x.bw[int(ha)*x.n+int(hb)]
		k := [2]netmodel.HostID{min(ha, hb), max(ha, hb)}
		if !memo[k] {
			memo[k] = true
			d.Bandwidth(k[0], k[1], float64(v), monitor.ProvProbe)
		}
		return v
	}
	got := opt(x.initial, x.hosts, x.model, bw, d)
	return got, a.Stats(), rec.Hash()
}

// TestOneShotMatchesReference: the in-place optimiser returns the same
// placement as the clone-per-candidate reference, scores the same number of
// candidates, and emits a decision-audit stream with the same FNV hash —
// same links first queried in the same order, same candidate costs, same
// moves.
func TestOneShotMatchesReference(t *testing.T) {
	prop := func(seed int64, leftDeep bool) bool {
		x := randomOptimiseInstance(rand.New(rand.NewSource(seed)), leftDeep)
		start := x.initial.Clone()
		want, wantStats, wantHash := runAudited(referenceOneShotOptimizeAudited, x)
		got, gotStats, gotHash := runAudited(OneShotOptimizeAudited, x)
		if !got.Equal(want) {
			t.Logf("seed %d: placement %v, want %v", seed, got, want)
			return false
		}
		if gotStats != wantStats {
			t.Logf("seed %d: stats %+v, want %+v", seed, gotStats, wantStats)
			return false
		}
		if gotHash != wantHash {
			t.Logf("seed %d: audit hash %x, want %x", seed, gotHash, wantHash)
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
