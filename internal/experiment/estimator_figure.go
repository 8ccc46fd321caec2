package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"wadc/internal/analysis"
	"wadc/internal/core"
	"wadc/internal/metrics"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// ---------------------------------------------------------------------------
// Estimator-accuracy sensitivity — TThres × piggyback-k × regime.
//
// The paper fixes T_thres = 40 s and a 1 KB piggyback budget against traces
// whose significant (>= 10 %) changes arrive about every two minutes. This
// figure re-runs the global algorithm across the cross product of cache
// timeout, piggyback capacity (k entries per message) and regime volatility,
// and scores what the optimiser actually consumed: estimate error at use,
// staleness mix, and how long true bandwidth regime changes went unnoticed.
// ---------------------------------------------------------------------------

// estimatorRegime is one volatility setting of the synthetic traces.
type estimatorRegime struct {
	Name string
	// SwitchProb is the per-sample congestion-switch probability
	// (trace.StudySwitchProb, 0.083 ~= one significant change per two
	// minutes, is the paper's calibration).
	SwitchProb float64
}

// EstimatorCell is one (regime, TThres, piggyback-k) run of the sweep.
type EstimatorCell struct {
	Regime           string
	SwitchProb       float64
	TThres           time.Duration
	PiggybackEntries int
	// Uses counts consumed estimates; the error quantiles summarise their
	// |relative error| against ground truth over the validity window.
	Uses                  int
	MeanAbsErr, P95AbsErr float64
	// ProbeFrac/StaleFrac split consumptions by provenance; MeanAgeSec is
	// the mean estimate age at use.
	ProbeFrac, StaleFrac float64
	MeanAgeSec           float64
	// Detections and the lag quantiles score regime-change tracking.
	Detections            int
	MeanLagSec, P95LagSec float64
	// Probes and CompletionSec situate the accuracy numbers against what
	// the run paid and achieved.
	Probes        int64
	CompletionSec float64
}

// FigEstimatorResult holds the full sweep, cells in deterministic
// (regime, TThres, k) order.
type FigEstimatorResult struct {
	Opts  Options
	Cells []EstimatorCell
}

// estimatorTThresValues brackets the paper's 40 s cache timeout by 4× in
// both directions.
var estimatorTThresValues = []time.Duration{10 * time.Second, 40 * time.Second, 160 * time.Second}

// estimatorPiggybackEntries sweeps the piggyback capacity: 1 entry per
// message, a quarter of the paper's budget, and the paper's full 64 entries.
var estimatorPiggybackEntries = []int{1, 16, 64}

// estimatorRegimes brackets the paper's calibrated volatility.
var estimatorRegimes = []estimatorRegime{
	{Name: "calm", SwitchProb: 0.02},
	{Name: "paper", SwitchProb: trace.StudySwitchProb},
	{Name: "volatile", SwitchProb: 0.3},
}

// FigureEstimator sweeps TThres × piggyback-k × regime, one global-algorithm
// run per cell, with estimator-accuracy tracking joined to each run's event
// log. All cells of one regime share the same links, so the TThres and
// piggyback columns isolate the monitoring knobs.
func FigureEstimator(o Options) (*FigEstimatorResult, error) {
	o = o.withDefaults()
	type cellJob struct {
		regime estimatorRegime
		tthres time.Duration
		k      int
		links  core.LinkFn
	}
	var jobs []cellJob
	for ri, reg := range estimatorRegimes {
		links := regimeLinks(o.Seed+int64(ri)*1000003, o.Servers, reg.SwitchProb)
		for _, tt := range estimatorTThresValues {
			for _, k := range estimatorPiggybackEntries {
				jobs = append(jobs, cellJob{regime: reg, tthres: tt, k: k, links: links})
			}
		}
	}
	cells := make([]EstimatorCell, len(jobs))
	err := runCells(o, len(jobs), func(i int) (int64, error) {
		j := jobs[i]
		rec := &telemetry.Recorder{}
		res, err := core.Run(core.RunConfig{
			Seed:       runSeed(o.Seed, i),
			NumServers: o.Servers,
			Shape:      core.CompleteBinaryTree,
			Links:      j.links,
			Policy:     &placement.Global{Period: o.Period},
			Workload:   o.workloadConfig(),
			Monitor: monitor.Config{
				TThres:          j.tthres,
				PiggybackBudget: j.k * monitor.DefaultEntrySize,
			},
			Observe: core.Observe{Telemetry: telemetry.ModelOnly(rec), Estimates: true},
		})
		if err != nil {
			return 0, fmt.Errorf("estimator cell %s/%v/k=%d: %w", j.regime.Name, j.tthres, j.k, err)
		}
		rep := analysis.BuildEstimatorReport(rec.Events())
		cell := EstimatorCell{
			Regime: j.regime.Name, SwitchProb: j.regime.SwitchProb,
			TThres: j.tthres, PiggybackEntries: j.k,
			Uses:       rep.Uses,
			Detections: rep.Detections,
			MeanLagSec: rep.MeanLag, P95LagSec: rep.P95Lag,
			Probes:        res.Probes,
			CompletionSec: res.Completion.Seconds(),
		}
		for _, p := range rep.Profiles {
			if p.Algorithm == "global" {
				cell.MeanAbsErr = p.MeanAbsErr
				cell.P95AbsErr = p.P95AbsErr
				cell.ProbeFrac = p.ProbeFraction
				cell.StaleFrac = p.StaleFraction
				cell.MeanAgeSec = p.MeanAge
			}
		}
		cells[i] = cell
		return res.KernelEvents, nil
	})
	if err != nil {
		return nil, err
	}
	return &FigEstimatorResult{Opts: o, Cells: cells}, nil
}

// regimeLinks builds a complete-graph link assignment whose traces share one
// congestion-switch probability: paper-era base bandwidths jittered per pair,
// deterministic in seed.
func regimeLinks(seed int64, servers int, switchProb float64) core.LinkFn {
	rng := rand.New(rand.NewSource(seed))
	n := servers + 1
	traces := make(map[[2]netmodel.HostID]*trace.Trace)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			base := trace.KBps(20 + 80*rng.Float64())
			k := [2]netmodel.HostID{netmodel.HostID(a), netmodel.HostID(b)}
			traces[k] = trace.Generate(fmt.Sprintf("sp%.3f-%d-%d", switchProb, a, b), rng.Int63(), base, switchProb)
		}
	}
	return func(a, b netmodel.HostID) *trace.Trace {
		if a > b {
			a, b = b, a
		}
		return traces[[2]netmodel.HostID{a, b}]
	}
}

// Render prints one row per cell, grouped by regime.
func (r *FigEstimatorResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Estimator accuracy — TThres × piggyback-k × regime (%d servers, global algorithm)\n",
		r.Opts.Servers)
	tbl := metrics.NewTable("regime", "tthres", "piggy-k", "uses", "mean|err|", "p95|err|",
		"probe%", "stale%", "age(s)", "detect", "lag(s)", "p95lag(s)", "probes", "completion(s)")
	for _, c := range r.Cells {
		tbl.AddRow(c.Regime, c.TThres.String(), c.PiggybackEntries, c.Uses,
			c.MeanAbsErr, c.P95AbsErr, c.ProbeFrac*100, c.StaleFrac*100, c.MeanAgeSec,
			c.Detections, c.MeanLagSec, c.P95LagSec, c.Probes, c.CompletionSec)
	}
	sb.WriteString(tbl.String())
	sb.WriteString("reading guide: longer TThres trades probe cost for staleness (age up, error up);\n")
	sb.WriteString("volatile regimes shorten the useful cache lifetime, so detection lag tracks TThres.\n")
	return sb.String()
}
