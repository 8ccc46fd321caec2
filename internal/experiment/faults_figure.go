package experiment

import (
	"fmt"
	"math"
	"strings"

	"wadc/internal/core"
	"wadc/internal/faults"
	"wadc/internal/metrics"
)

// ---------------------------------------------------------------------------
// Robustness figure (extension) — the Figure-6 comparison under injected
// faults. The paper's evaluation assumes reliable hosts and lossless
// transport; this sweep re-runs the four algorithms while hosts crash,
// messages are dropped and duplicated, and links black out, at several fault
// intensities.
// ---------------------------------------------------------------------------

// DefaultFaultRates are the fault-intensity multipliers the robustness
// figure sweeps when none are given. Rate 0 is the fault-free baseline;
// rate 1 is the reference intensity of FaultConfigAt.
var DefaultFaultRates = []float64{0, 0.5, 1, 2}

// FaultConfigAt scales the reference fault intensity by rate: at rate 1 a
// run sees two host crashes, two link outages, 2% message drop and 1%
// duplication. Rate 0 disables injection entirely.
func FaultConfigAt(rate float64) faults.Config {
	if rate <= 0 {
		return faults.Config{}
	}
	return faults.Config{
		Crashes:     int(math.Round(2 * rate)),
		DropProb:    math.Min(0.02*rate, 0.5),
		DupProb:     math.Min(0.01*rate, 0.5),
		LinkOutages: int(math.Round(2 * rate)),
	}
}

// FigFaultsResult holds the robustness sweep: per-rate mean image
// interarrival for every algorithm, plus what the injector actually did.
type FigFaultsResult struct {
	Opts  Options
	Rates []float64
	// Interarrival[alg][i] is the mean image interarrival time (seconds) of
	// alg at Rates[i].
	Interarrival map[string][]float64
	// Slowdown[alg][i] is Interarrival[alg][i] normalised by the
	// algorithm's own fault-free interarrival (Rates must include 0 for
	// this to be meaningful; otherwise it is normalised by Rates[0]).
	Slowdown map[string][]float64
	// Injected activity totals per rate, across all runs of the sweep.
	Crashes          []int
	Retries          []int
	Reinstantiations []int
	Dropped          []int64
	Duplicated       []int64
}

// FigureFaults runs the Figure-6 comparison at each fault rate.
func FigureFaults(o Options, rates []float64) (*FigFaultsResult, error) {
	if len(rates) == 0 {
		rates = DefaultFaultRates
	}
	algs := StandardAlgorithms()
	r := &FigFaultsResult{
		Rates:            rates,
		Interarrival:     make(map[string][]float64),
		Slowdown:         make(map[string][]float64),
		Crashes:          make([]int, len(rates)),
		Retries:          make([]int, len(rates)),
		Reinstantiations: make([]int, len(rates)),
		Dropped:          make([]int64, len(rates)),
		Duplicated:       make([]int64, len(rates)),
	}
	for i, rate := range rates {
		ro := o.sweepDir(fmt.Sprintf("faults-%g", rate))
		ro.Faults = FaultConfigAt(rate)
		sweep, err := RunSweep(ro, core.CompleteBinaryTree, algs)
		if err != nil {
			return nil, fmt.Errorf("fault rate %g: %w", rate, err)
		}
		r.Opts = sweep.Opts
		for _, a := range algs {
			r.Interarrival[a.Name] = append(r.Interarrival[a.Name], sweep.MeanInterarrival(a.Name))
			for _, c := range sweep.Cells[a.Name] {
				r.Crashes[i] += c.CrashesFired
				r.Retries[i] += c.Retries
				r.Reinstantiations[i] += c.Reinstantiations
				r.Dropped[i] += c.Dropped
				r.Duplicated[i] += c.Duplicated
			}
		}
	}
	for _, a := range algs {
		base := r.Interarrival[a.Name][0]
		for _, v := range r.Interarrival[a.Name] {
			s := 0.0
			if base > 0 {
				s = v / base
			}
			r.Slowdown[a.Name] = append(r.Slowdown[a.Name], s)
		}
	}
	return r, nil
}

// Render prints the comparison table: one row per fault rate.
func (r *FigFaultsResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Robustness — mean image interarrival (s) under fault injection (%d configs, %d servers)\n",
		r.Opts.Configs, r.Opts.Servers)
	order := []string{"download-all", "one-shot", "local", "global"}
	tbl := metrics.NewTable("fault rate", "download-all", "one-shot", "local", "global",
		"crashes", "retries", "reinst", "dropped", "dup")
	for i, rate := range r.Rates {
		row := []any{fmt.Sprintf("%g", rate)}
		for _, alg := range order {
			row = append(row, fmt.Sprintf("%.1f (%.2fx)", r.Interarrival[alg][i], r.Slowdown[alg][i]))
		}
		row = append(row, r.Crashes[i], r.Retries[i], r.Reinstantiations[i],
			r.Dropped[i], r.Duplicated[i])
		tbl.AddRow(row...)
	}
	sb.WriteString(tbl.String())
	sb.WriteString("  (Nx) is each algorithm's slowdown relative to its own fault-free run.\n")
	return sb.String()
}
