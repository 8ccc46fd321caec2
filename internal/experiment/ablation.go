package experiment

import (
	"fmt"
	"strings"
	"time"

	"wadc/internal/core"
	"wadc/internal/metrics"
	"wadc/internal/monitor"
	"wadc/internal/placement"
	"wadc/internal/trace"
)

// AblationResult quantifies the design choices DESIGN.md §6 calls out, each
// as the mean completion time over the sweep's configurations (lower is
// better) next to its baseline.
type AblationResult struct {
	Opts Options
	// Rows are (name, baseline mean completion, variant mean completion).
	Rows []AblationRow
}

// AblationRow is one ablation comparison.
type AblationRow struct {
	Name            string
	Baseline        string
	BaselineMeanSec float64
	Variant         string
	VariantMeanSec  float64
	DeltaPct        float64 // (variant - baseline) / baseline * 100
}

// Ablations runs the four §6 ablations over the sweep's configurations.
func Ablations(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	pool := trace.NewStudyPool(o.Seed)
	assignments := GenerateAssignments(pool, o.Configs, o.Servers, o.Seed)

	// Each variant edits the global-algorithm baseline run; a nil edit is
	// the baseline itself.
	variants := []func(*core.RunConfig){
		nil,
		func(c *core.RunConfig) { c.FlatPriorities = true },
		func(c *core.RunConfig) {
			mc := monitor.DefaultConfig()
			mc.ProbeMode = monitor.ProbeOracle
			c.Monitor = mc
		},
		func(c *core.RunConfig) {
			mc := monitor.DefaultConfig()
			mc.TThres = 5 * time.Minute
			c.Monitor = mc
		},
		// The staggered-epoch ablation compares local against local, so it
		// needs its own baseline.
		func(c *core.RunConfig) { c.Policy = &placement.Local{Period: o.Period, Seed: c.Seed} },
		func(c *core.RunConfig) { c.Policy = &placement.Local{Period: o.Period, Seed: c.Seed, Unstagger: true} },
	}
	// Cell i is variant i/len(assignments) on configuration
	// i%len(assignments).
	secs := make([]float64, len(variants)*len(assignments))
	err := runCells(o, len(secs), func(i int) (int64, error) {
		a := assignments[i%len(assignments)]
		seed := runSeed(o.Seed, a.Index)
		cfg := core.RunConfig{
			Seed: seed, NumServers: o.Servers, Shape: core.CompleteBinaryTree,
			Links:    a.LinkFn(),
			Policy:   &placement.Global{Period: o.Period},
			Workload: o.workloadConfig(),
		}
		if mutate := variants[i/len(assignments)]; mutate != nil {
			mutate(&cfg)
		}
		res, err := core.Run(cfg)
		if err != nil {
			return 0, fmt.Errorf("ablation config %d: %w", a.Index, err)
		}
		secs[i] = res.Completion.Seconds()
		return res.KernelEvents, nil
	})
	if err != nil {
		return nil, err
	}
	// mean sums variant v's completions in configuration order.
	mean := func(v int) float64 {
		var sum float64
		for _, s := range secs[v*len(assignments) : (v+1)*len(assignments)] {
			sum += s
		}
		return sum / float64(len(assignments))
	}

	r := &AblationResult{Opts: o}
	for _, row := range []struct {
		name, baseLabel, varLabel string
		base, variant             int
	}{
		{"barrier priority (§2.2)", "priority on", "flat FIFO", 0, 1},
		{"monitoring fidelity", "timed probes + 40s cache", "oracle knowledge", 0, 2},
		{"cache timeout T_thres", "40s (paper)", "5m (stale tolerated)", 0, 3},
		{"staggered epochs (§2.3, local)", "staggered", "unstaggered", 4, 5},
	} {
		b, v := mean(row.base), mean(row.variant)
		r.Rows = append(r.Rows, AblationRow{
			Name: row.name, Baseline: row.baseLabel, BaselineMeanSec: b,
			Variant: row.varLabel, VariantMeanSec: v,
			DeltaPct: (v - b) / b * 100,
		})
	}
	return r, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablations (DESIGN.md §6) — mean completion over %d configs, %d servers, global unless noted\n",
		r.Opts.Configs, r.Opts.Servers)
	tbl := metrics.NewTable("design choice", "baseline", "mean (s)", "variant", "mean (s)", "delta")
	for _, row := range r.Rows {
		tbl.AddRow(row.Name, row.Baseline, row.BaselineMeanSec,
			row.Variant, row.VariantMeanSec, fmt.Sprintf("%+.1f%%", row.DeltaPct))
	}
	sb.WriteString(tbl.String())
	return sb.String()
}
