package experiment

import (
	"fmt"
	"strings"

	"wadc/internal/analysis"
	"wadc/internal/core"
	"wadc/internal/metrics"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// DiscussionResult reproduces the paper's §5 discussion: why the local
// algorithm trails the global one. For each configuration and both on-line
// algorithms, the run's relocation trace is scored against an oracle
// optimiser (see the analysis package); the paper's explanation predicts the
// local algorithm holds placements farther from the optimum and converges
// more slowly.
type DiscussionResult struct {
	Opts Options
	// Gap[alg] collects per-configuration mean optimality gaps.
	Gap map[string][]float64
	// WithinTenPct[alg] collects per-configuration fractions of time spent
	// within 10 % of the oracle optimum.
	WithinTenPct map[string][]float64
	// Moves[alg] collects per-configuration relocation counts.
	Moves map[string][]float64
}

// Discussion runs global and local on each configuration and scores their
// relocation traces.
func Discussion(o Options) (*DiscussionResult, error) {
	o = o.withDefaults()
	pool := trace.NewStudyPool(o.Seed)
	assignments := GenerateAssignments(pool, o.Configs, o.Servers, o.Seed)
	model := plan.DefaultCostModel(workload.DefaultMeanBytes)
	hosts := make([]netmodel.HostID, o.Servers+1)
	for i := range hosts {
		hosts[i] = netmodel.HostID(i)
	}
	algs := StandardAlgorithms()[2:] // global and local
	// Cell i is configuration i/len(algs) under algorithm i%len(algs).
	type score struct{ gap, within, moves float64 }
	scores := make([]score, len(assignments)*len(algs))
	err := runCells(o, len(scores), func(i int) (int64, error) {
		a, alg := assignments[i/len(algs)], algs[i%len(algs)]
		seed := runSeed(o.Seed, a.Index)
		res, err := core.Run(core.RunConfig{
			Seed: seed, NumServers: o.Servers, Shape: core.CompleteBinaryTree,
			Links: a.LinkFn(), Policy: alg.New(o, seed),
			Workload: o.workloadConfig(),
		})
		if err != nil {
			return 0, fmt.Errorf("discussion config %d %s: %w", a.Index, alg.Name, err)
		}
		oracle := analysis.OracleFromLinks(func(x, y netmodel.HostID) *trace.Trace {
			return a.Trace(x, y)
		})
		tl := analysis.NewTimeline(res.InitialPlacement, res.MoveLog)
		rep := analysis.Convergence(tl, oracle, model, hosts, res.Completion, 2*sim.Minute)
		scores[i] = score{rep.MeanGap, rep.WithinTenPct, float64(res.Moves)}
		return res.KernelEvents, nil
	})
	if err != nil {
		return nil, err
	}
	r := &DiscussionResult{
		Opts:         o,
		Gap:          map[string][]float64{},
		WithinTenPct: map[string][]float64{},
		Moves:        map[string][]float64{},
	}
	for i, sc := range scores {
		name := algs[i%len(algs)].Name
		r.Gap[name] = append(r.Gap[name], sc.gap)
		r.WithinTenPct[name] = append(r.WithinTenPct[name], sc.within)
		r.Moves[name] = append(r.Moves[name], sc.moves)
	}
	return r, nil
}

// Render prints the comparison table.
func (r *DiscussionResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Discussion (paper §5) — distance from the oracle-optimal placement (%d configs, %d servers)\n",
		r.Opts.Configs, r.Opts.Servers)
	tbl := metrics.NewTable("algorithm", "mean gap", "median gap", "time within 10% of optimum", "mean moves")
	for _, alg := range []string{"global", "local"} {
		tbl.AddRow(alg,
			metrics.Mean(r.Gap[alg]),
			metrics.Median(r.Gap[alg]),
			fmt.Sprintf("%.0f%%", 100*metrics.Mean(r.WithinTenPct[alg])),
			metrics.Mean(r.Moves[alg]))
	}
	sb.WriteString(tbl.String())
	sb.WriteString("  paper: the local algorithm holds less efficient placements while it\n")
	sb.WriteString("  converges, and the network often changes before it gets there\n")
	return sb.String()
}

// OrderingResult is the extension experiment: the greedy bandwidth-aware
// combination order against the paper's two fixed orders, all under the
// global algorithm.
type OrderingResult struct {
	Opts Options
	// AvgSpeedup[shape] is the mean speedup over that shape's download-all.
	AvgSpeedup map[string]float64
}

// Ordering compares complete-binary, left-deep and greedy-bandwidth orders.
func Ordering(o Options) (*OrderingResult, error) {
	r := &OrderingResult{AvgSpeedup: map[string]float64{}}
	algs := []AlgSpec{
		{Name: "download-all", New: func(Options, int64) placement.Policy { return placement.DownloadAll{} }},
		{Name: "global", New: func(o Options, _ int64) placement.Policy { return &placement.Global{Period: o.Period} }},
	}
	for _, shape := range []core.TreeShape{core.CompleteBinaryTree, core.LeftDeepTree, core.GreedyBandwidthTree} {
		sweep, err := RunSweep(o.sweepDir(shape.String()), shape, algs)
		if err != nil {
			return nil, err
		}
		r.Opts = sweep.Opts
		sp := metrics.Speedups(sweep.Completions("download-all"), sweep.Completions("global"))
		r.AvgSpeedup[shape.String()] = metrics.Mean(sp)
	}
	return r, nil
}

// Render prints the ordering comparison.
func (r *OrderingResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — combination-order comparison under the global algorithm (%d configs)\n",
		r.Opts.Configs)
	tbl := metrics.NewTable("order", "avg speedup over download-all")
	for _, shape := range []string{"complete-binary", "left-deep", "greedy-bandwidth"} {
		tbl.AddRow(shape, r.AvgSpeedup[shape])
	}
	sb.WriteString(tbl.String())
	return sb.String()
}
