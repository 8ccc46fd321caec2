package analysis

import (
	"testing"
	"time"

	"math/rand"

	"wadc/internal/core"
	"wadc/internal/dataflow"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

func TestTimelineReconstruction(t *testing.T) {
	tree := plan.CompleteBinary(2)
	sh, ch := plan.DefaultHostAssignment(2)
	initial := plan.NewPlacement(tree, sh, ch)
	op := tree.Operators()[0]
	moves := []dataflow.MoveRecord{
		{At: 20 * sim.Second, Op: op, From: ch, To: 0},
		{At: 10 * sim.Second, Op: op, From: 0, To: 1}, // out of order on purpose
	}
	tl := NewTimeline(initial, moves)
	if got := tl.At(5 * sim.Second).Loc(op); got != ch {
		t.Errorf("t=5s loc = %d, want client", got)
	}
	if got := tl.At(15 * sim.Second).Loc(op); got != 1 {
		t.Errorf("t=15s loc = %d, want 1", got)
	}
	if got := tl.At(25 * sim.Second).Loc(op); got != 0 {
		t.Errorf("t=25s loc = %d, want 0", got)
	}
}

func TestConvergencePerfectWhenStatic(t *testing.T) {
	// With constant uniform bandwidth and a placement already optimal, the
	// gap must be ~1 everywhere.
	tree := plan.CompleteBinary(2)
	sh, ch := plan.DefaultHostAssignment(2)
	initial := plan.NewPlacement(tree, sh, ch)
	model := plan.DefaultCostModel(128 * 1024)
	hosts := []netmodel.HostID{0, 1, 2}
	oracle := OracleFromLinks(func(a, b netmodel.HostID) *trace.Trace {
		return trace.Constant("l", 64*1024)
	})
	// Optimise the initial placement first so it is the oracle's choice.
	best := placement.OneShotOptimizeAudited(model.NewEvaluator(initial, hosts, nil), initial, hosts, oracle(0), placement.Decision{})
	tl := NewTimeline(best, nil)
	rep := Convergence(tl, oracle, model, hosts, 10*sim.Minute, sim.Minute)
	if rep.Samples != 11 {
		t.Fatalf("samples = %d", rep.Samples)
	}
	if rep.MeanGap > 1.001 || rep.WithinTenPct < 0.99 {
		t.Errorf("static optimal placement scored gap %.3f within10=%.2f", rep.MeanGap, rep.WithinTenPct)
	}
}

func TestConvergenceDetectsStaleness(t *testing.T) {
	// A placement that never adapts while the network flips must show a
	// large gap after the flip.
	tree := plan.CompleteBinary(2)
	sh, ch := plan.DefaultHostAssignment(2)
	model := plan.DefaultCostModel(128 * 1024)
	hosts := []netmodel.HostID{0, 1, 2}
	flip := 5 * sim.Minute
	links := func(a, b netmodel.HostID) *trace.Trace {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == 0 && hi == 2 {
			return trace.New("flip", flip, []trace.Bandwidth{200 * 1024, 1024})
		}
		if lo == 1 && hi == 2 {
			return trace.New("flip", flip, []trace.Bandwidth{1024, 200 * 1024})
		}
		return trace.Constant("fast", 500*1024)
	}
	oracle := OracleFromLinks(links)
	initial := plan.NewPlacement(tree, sh, ch)
	stale := placement.OneShotOptimizeAudited(model.NewEvaluator(initial, hosts, nil), initial, hosts, oracle(0), placement.Decision{})
	tl := NewTimeline(stale, nil)
	rep := Convergence(tl, oracle, model, hosts, 10*sim.Minute, sim.Minute)
	if rep.MeanGap < 1.5 {
		t.Errorf("stale placement gap %.2f, expected large", rep.MeanGap)
	}
	if rep.WithinTenPct > 0.7 {
		t.Errorf("stale placement within10 = %.2f, expected mostly out", rep.WithinTenPct)
	}
}

func TestConvergenceOnRealRuns(t *testing.T) {
	// Reproduce the paper's discussion: the global algorithm should track
	// the oracle optimum at least as closely as the local algorithm on
	// average. (The link assignment is drawn from the study pool directly to
	// avoid importing the experiment package, which itself imports analysis.)
	pool := trace.NewStudyPool(3)
	rng := rand.New(rand.NewSource(3))
	linkMap := map[[2]netmodel.HostID]*trace.Trace{}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			linkMap[[2]netmodel.HostID{netmodel.HostID(a), netmodel.HostID(b)}] = pool.Pick(rng)
		}
	}
	linkAt := func(a, b netmodel.HostID) *trace.Trace {
		if a > b {
			a, b = b, a
		}
		return linkMap[[2]netmodel.HostID{a, b}]
	}
	model := plan.DefaultCostModel(workload.DefaultMeanBytes)
	hosts := []netmodel.HostID{0, 1, 2, 3, 4}
	wl := workload.Config{ImagesPerServer: 40, MeanBytes: 128 * 1024, SpreadFrac: 0.25}

	score := func(p placement.Policy) Report {
		res, err := core.Run(core.RunConfig{
			Seed: 3, NumServers: 4, Shape: core.CompleteBinaryTree,
			Links: linkAt, Policy: p, Workload: wl,
		})
		if err != nil {
			t.Fatal(err)
		}
		tl := NewTimeline(res.InitialPlacement, res.MoveLog)
		oracle := OracleFromLinks(linkAt)
		return Convergence(tl, oracle, model, hosts, res.Completion, 2*sim.Minute)
	}
	global := score(&placement.Global{Period: 5 * time.Minute})
	local := score(&placement.Local{Period: 5 * time.Minute, Seed: 3})
	if global.Samples == 0 || local.Samples == 0 {
		t.Fatal("no samples")
	}
	// On a single configuration either algorithm can win; aggregate claims
	// are made by experiment.Discussion over many configs. Here only check
	// the reports are sane: gaps at least 1 (nothing beats the oracle) and
	// bounded (the scorer did not diverge).
	for _, rep := range []Report{global, local} {
		if rep.MeanGap < 1.0-1e-9 || rep.MeanGap > 100 {
			t.Errorf("implausible mean gap %.2f", rep.MeanGap)
		}
		if rep.WithinTenPct < 0 || rep.WithinTenPct > 1 {
			t.Errorf("implausible within10 %.2f", rep.WithinTenPct)
		}
	}
}

func TestConvergenceValidation(t *testing.T) {
	tl := NewTimeline(plan.NewPlacement(plan.CompleteBinary(2), []netmodel.HostID{0, 1}, 2), nil)
	defer func() {
		if recover() == nil {
			t.Error("zero step did not panic")
		}
	}()
	Convergence(tl, nil, plan.CostModel{}, nil, sim.Minute, 0)
}
