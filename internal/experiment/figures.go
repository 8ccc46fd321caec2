package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wadc/internal/core"
	"wadc/internal/metrics"
	"wadc/internal/placement"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 2 — variation in application-level network bandwidth.
// ---------------------------------------------------------------------------

// Fig2Result reproduces the two plots of Figure 2 for one synthetic
// host-pair trace: the first ten minutes and the full two days, plus the
// calibration statistic (expected time between >= 10% changes) that the
// paper derived from its traces.
type Fig2Result struct {
	TraceName string
	Stats     trace.Stats
	ShortBW   []trace.Bandwidth
	LongBW    []trace.Bandwidth
}

// Figure2 analyses the i-th trace of the study pool.
func Figure2(seed int64, index int) *Fig2Result {
	pool := trace.NewStudyPool(seed)
	tr := pool.Trace(index % pool.Size())
	return &Fig2Result{
		TraceName: tr.Name(),
		Stats:     trace.Analyze(tr),
		ShortBW:   trace.VariationSeries(tr, NoonOffset, 10*sim.Minute, 120),
		LongBW:    trace.VariationSeries(tr, 0, tr.Duration(), 240),
	}
}

// Render prints the two series as sparklines with the summary statistics.
func (r *Fig2Result) Render() string {
	short := make([]float64, len(r.ShortBW))
	for i, b := range r.ShortBW {
		short[i] = b.KBps()
	}
	long := make([]float64, len(r.LongBW))
	for i, b := range r.LongBW {
		long[i] = b.KBps()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2 — bandwidth variation, trace %s\n", r.TraceName)
	fmt.Fprintf(&sb, "  first 10 minutes : %s  [%.1f..%.1f KB/s]\n",
		metrics.Sparkline(short, 60), metrics.Min(short), metrics.Max(short))
	fmt.Fprintf(&sb, "  full two days    : %s  [%.1f..%.1f KB/s]\n",
		metrics.Sparkline(long, 60), metrics.Min(long), metrics.Max(long))
	fmt.Fprintf(&sb, "  mean %.1f KB/s, CoV %.2f, expected time between >=10%% changes: %v (paper: ~2 min)\n",
		r.Stats.Mean.KBps(), r.Stats.CoV, r.Stats.SignificantChangeInterval.Round(time.Second))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 6 — performance of the relocation algorithms over N configurations.
// ---------------------------------------------------------------------------

// Fig6Result holds per-configuration speedups over download-all for the
// three relocation algorithms, plus the mean image interarrival times the
// paper quotes in §5.
type Fig6Result struct {
	Opts Options
	// Speedups[alg][i] is the speedup of alg over download-all on config i.
	Speedups map[string][]float64
	// Interarrival[alg] is the mean image interarrival time in seconds
	// (paper: download-all 101.2, one-shot 24.6, local 22, global 17.1).
	Interarrival map[string]float64
	// GlobalOverOneShot and GlobalOverLocal are the per-config ratios whose
	// medians the paper quotes (~1.4 and ~1.25).
	GlobalOverOneShot []float64
	GlobalOverLocal   []float64
}

// Figure6 runs the main experiment: all four algorithms on every
// configuration.
func Figure6(o Options) (*Fig6Result, error) {
	sweep, err := RunSweep(o, core.CompleteBinaryTree, StandardAlgorithms())
	if err != nil {
		return nil, err
	}
	base := sweep.Completions("download-all")
	r := &Fig6Result{
		Opts:         sweep.Opts,
		Speedups:     make(map[string][]float64),
		Interarrival: make(map[string]float64),
	}
	for _, alg := range []string{"one-shot", "global", "local"} {
		r.Speedups[alg] = metrics.Speedups(base, sweep.Completions(alg))
	}
	for _, alg := range []string{"download-all", "one-shot", "global", "local"} {
		r.Interarrival[alg] = sweep.MeanInterarrival(alg)
	}
	r.GlobalOverOneShot = metrics.Speedups(sweep.Completions("one-shot"), sweep.Completions("global"))
	r.GlobalOverLocal = metrics.Speedups(sweep.Completions("local"), sweep.Completions("global"))
	return r, nil
}

// Render prints the sorted speedup curves and summary statistics.
func (r *Fig6Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6 — speedup over download-all (%d configs, %d servers)\n",
		r.Opts.Configs, r.Opts.Servers)
	for _, alg := range []string{"one-shot", "global", "local"} {
		s := metrics.SortedCopy(r.Speedups[alg])
		fmt.Fprintf(&sb, "  %-9s %s  %s\n", alg, metrics.Sparkline(s, 50), metrics.Summarize(s))
		fmt.Fprintf(&sb, "  %-9s median speedup %s\n", "", metrics.MedianCI(r.Speedups[alg]))
	}
	fmt.Fprintf(&sb, "  median global/one-shot ratio: %.2f (paper: ~1.4)\n",
		metrics.Median(r.GlobalOverOneShot))
	fmt.Fprintf(&sb, "  median global/local ratio:    %.2f (paper: ~1.25)\n",
		metrics.Median(r.GlobalOverLocal))
	tbl := metrics.NewTable("algorithm", "mean image interarrival (s)", "paper (s)")
	paper := map[string]string{
		"download-all": "101.2", "one-shot": "24.6", "local": "22", "global": "17.1",
	}
	for _, alg := range []string{"download-all", "one-shot", "local", "global"} {
		tbl.AddRow(alg, r.Interarrival[alg], paper[alg])
	}
	sb.WriteString(tbl.String())
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 7 — extra random candidate locations for the local algorithm.
// ---------------------------------------------------------------------------

// Fig7Result maps the number of extra candidate locations to the average
// speedup of the local algorithm (the paper finds no significant change).
type Fig7Result struct {
	Opts   Options
	Extras []int
	// AvgSpeedup[i] corresponds to Extras[i].
	AvgSpeedup []float64
}

// Figure7 sweeps the local algorithm's extra-candidate count from 0 to 6.
func Figure7(o Options) (*Fig7Result, error) {
	algs := []AlgSpec{
		{Name: "download-all", New: func(Options, int64) placement.Policy { return placement.DownloadAll{} }},
	}
	extras := []int{0, 1, 2, 3, 4, 5, 6}
	for _, k := range extras {
		k := k
		algs = append(algs, AlgSpec{
			Name: fmt.Sprintf("local+%d", k),
			New: func(o Options, seed int64) placement.Policy {
				return &placement.Local{Period: o.Period, Extra: k, Seed: seed}
			},
		})
	}
	sweep, err := RunSweep(o, core.CompleteBinaryTree, algs)
	if err != nil {
		return nil, err
	}
	base := sweep.Completions("download-all")
	r := &Fig7Result{Opts: sweep.Opts, Extras: extras}
	for _, k := range extras {
		sp := metrics.Speedups(base, sweep.Completions(fmt.Sprintf("local+%d", k)))
		r.AvgSpeedup = append(r.AvgSpeedup, metrics.Mean(sp))
	}
	return r, nil
}

// Render prints average speedup per extra-candidate count.
func (r *Fig7Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7 — local algorithm with k extra random locations (%d configs)\n", r.Opts.Configs)
	tbl := metrics.NewTable("extra locations", "avg speedup over download-all")
	for i, k := range r.Extras {
		tbl.AddRow(k, r.AvgSpeedup[i])
	}
	sb.WriteString(tbl.String())
	sb.WriteString("  paper: no significant difference across k\n")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — impact of the number of servers.
// ---------------------------------------------------------------------------

// Fig8Result maps server counts to the average speedup of each algorithm.
type Fig8Result struct {
	Opts    Options
	Servers []int
	// AvgSpeedup[alg][i] corresponds to Servers[i].
	AvgSpeedup map[string][]float64
}

// Figure8 varies the number of servers (paper: four to thirty-two).
func Figure8(o Options, serverCounts []int) (*Fig8Result, error) {
	if len(serverCounts) == 0 {
		serverCounts = []int{4, 8, 16, 32}
	}
	r := &Fig8Result{Servers: serverCounts, AvgSpeedup: make(map[string][]float64)}
	for _, s := range serverCounts {
		oo := o.sweepDir(fmt.Sprintf("servers-%d", s))
		oo.Servers = s
		sweep, err := RunSweep(oo, core.CompleteBinaryTree, StandardAlgorithms())
		if err != nil {
			return nil, err
		}
		r.Opts = sweep.Opts
		base := sweep.Completions("download-all")
		for _, alg := range []string{"one-shot", "global", "local"} {
			sp := metrics.Speedups(base, sweep.Completions(alg))
			r.AvgSpeedup[alg] = append(r.AvgSpeedup[alg], metrics.Mean(sp))
		}
	}
	return r, nil
}

// Render prints average speedup per algorithm per server count.
func (r *Fig8Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8 — impact of the number of servers (%d configs each)\n", r.Opts.Configs)
	tbl := metrics.NewTable("servers", "one-shot", "global", "local")
	for i, s := range r.Servers {
		tbl.AddRow(s, r.AvgSpeedup["one-shot"][i], r.AvgSpeedup["global"][i], r.AvgSpeedup["local"][i])
	}
	sb.WriteString(tbl.String())
	sb.WriteString("  paper: the global algorithm scales better than one-shot and local\n")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 9 — impact of the relocation period.
// ---------------------------------------------------------------------------

// Fig9Result maps relocation periods to the global algorithm's average
// speedup.
type Fig9Result struct {
	Opts       Options
	Periods    []time.Duration
	AvgSpeedup []float64
}

// Figure9 sweeps the global algorithm's relocation period (paper: five
// periods between two minutes and an hour; 5-10 minutes wins).
func Figure9(o Options, periods []time.Duration) (*Fig9Result, error) {
	if len(periods) == 0 {
		periods = []time.Duration{
			2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
			30 * time.Minute, time.Hour,
		}
	}
	algs := []AlgSpec{
		{Name: "download-all", New: func(Options, int64) placement.Policy { return placement.DownloadAll{} }},
	}
	for _, p := range periods {
		p := p
		algs = append(algs, AlgSpec{
			Name: "global@" + p.String(),
			New: func(Options, int64) placement.Policy {
				return &placement.Global{Period: p}
			},
		})
	}
	sweep, err := RunSweep(o, core.CompleteBinaryTree, algs)
	if err != nil {
		return nil, err
	}
	base := sweep.Completions("download-all")
	r := &Fig9Result{Opts: sweep.Opts, Periods: periods}
	for _, p := range periods {
		sp := metrics.Speedups(base, sweep.Completions("global@"+p.String()))
		r.AvgSpeedup = append(r.AvgSpeedup, metrics.Mean(sp))
	}
	return r, nil
}

// Render prints average speedup per period.
func (r *Fig9Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 — impact of the relocation period (global, %d configs)\n", r.Opts.Configs)
	tbl := metrics.NewTable("period", "avg speedup over download-all")
	for i, p := range r.Periods {
		tbl.AddRow(p.String(), r.AvgSpeedup[i])
	}
	sb.WriteString(tbl.String())
	sb.WriteString("  paper: a 5-10 minute relocation period performs best\n")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 10 — impact of the combination order.
// ---------------------------------------------------------------------------

// Fig10Result compares the relocation algorithms on complete-binary and
// left-deep combination trees.
type Fig10Result struct {
	Opts Options
	// Speedups[shape][alg] are per-config speedups over the same shape's
	// download-all baseline.
	Speedups map[string]map[string][]float64
}

// Figure10 reruns global, local and download-all on both orderings.
func Figure10(o Options) (*Fig10Result, error) {
	r := &Fig10Result{Speedups: make(map[string]map[string][]float64)}
	for _, shape := range []core.TreeShape{core.CompleteBinaryTree, core.LeftDeepTree} {
		sweep, err := RunSweep(o.sweepDir(shape.String()), shape, StandardAlgorithms())
		if err != nil {
			return nil, err
		}
		r.Opts = sweep.Opts
		base := sweep.Completions("download-all")
		m := make(map[string][]float64)
		for _, alg := range []string{"global", "local"} {
			m[alg] = metrics.Speedups(base, sweep.Completions(alg))
		}
		r.Speedups[shape.String()] = m
	}
	return r, nil
}

// Render prints both shapes side by side.
func (r *Fig10Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10 — impact of the combination order (%d configs)\n", r.Opts.Configs)
	tbl := metrics.NewTable("shape", "algorithm", "avg speedup", "median speedup")
	shapes := make([]string, 0, len(r.Speedups))
	for s := range r.Speedups {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	for _, shape := range shapes {
		for _, alg := range []string{"global", "local"} {
			sp := r.Speedups[shape][alg]
			tbl.AddRow(shape, alg, metrics.Mean(sp), metrics.Median(sp))
		}
	}
	sb.WriteString(tbl.String())
	sb.WriteString("  paper: the complete binary tree adapts better than the left-deep tree\n")
	return sb.String()
}
