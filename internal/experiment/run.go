package experiment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"wadc/internal/core"
	"wadc/internal/faults"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// Options parameterises a sweep. Zero values take the paper's defaults.
type Options struct {
	// Configs is the number of network configurations (paper: 300).
	Configs int
	// Servers is the number of data sources (paper main experiments: 8).
	Servers int
	// Iterations is the number of images per server (paper: 180).
	Iterations int
	// Seed drives configuration generation and per-run randomness.
	Seed int64
	// Period is the on-line algorithms' relocation period (paper: 10 min).
	Period time.Duration
	// Workers bounds concurrent simulations (default: NumCPU).
	Workers int
	// Faults applies the same fault-injection configuration to every run of
	// the sweep (zero disables it). Each run derives its own fault seed from
	// its run seed, so configurations fail differently but reproducibly.
	Faults faults.Config
	// TelemetryDir, when set, writes per-cell telemetry into the directory
	// (created if missing): c<config>_<alg>.events.jsonl with the cell's
	// model-level event log and c<config>_<alg>.metrics.csv with its
	// metrics. A figure that runs several sweeps writes each into a
	// subdirectory named after the value it varies (servers-16, left-deep,
	// faults-0.5). Empty disables telemetry entirely.
	TelemetryDir string
	// Perf, when set, receives sweep-level progress: the work meter counts
	// cells (AddWork/WorkDone) and each finished cell folds its kernel event
	// count in via AddEvents, so a Progress heartbeat over this recorder
	// shows percent done, ETA, and aggregate events/sec. The recorder is
	// deliberately NOT attached to the per-cell kernels: cells run
	// concurrently and the recorder's region clock is single-writer, so a
	// sweep gets counters and progress but no per-subsystem shares.
	Perf *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.Configs <= 0 {
		o.Configs = 300
	}
	if o.Servers <= 0 {
		o.Servers = 8
	}
	if o.Iterations <= 0 {
		o.Iterations = workload.DefaultImagesPerServer
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Period <= 0 {
		o.Period = placement.DefaultPeriod
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// sweepDir gives one sweep of a multi-sweep figure its own telemetry
// subdirectory, so the sweeps' same-named cell files do not overwrite each
// other.
func (o Options) sweepDir(name string) Options {
	if o.TelemetryDir != "" {
		o.TelemetryDir = filepath.Join(o.TelemetryDir, name)
	}
	return o
}

func (o Options) workloadConfig() workload.Config {
	return workload.Config{
		ImagesPerServer: o.Iterations,
		MeanBytes:       workload.DefaultMeanBytes,
		SpreadFrac:      workload.DefaultSpreadFrac,
	}
}

// AlgSpec names an algorithm and constructs a fresh policy per run (policies
// such as Local carry per-run state).
type AlgSpec struct {
	Name string
	New  func(o Options, runSeed int64) placement.Policy
}

// StandardAlgorithms returns the paper's four algorithms: each of
// tenant.DefaultAlgorithms built by core.NewPolicy with the sweep's period
// and the run's seed.
func StandardAlgorithms() []AlgSpec {
	algs := make([]AlgSpec, len(tenant.DefaultAlgorithms))
	for i, name := range tenant.DefaultAlgorithms {
		algs[i] = AlgSpec{Name: name, New: func(o Options, seed int64) placement.Policy {
			p, err := core.NewPolicy(name, core.PolicyOptions{Period: o.Period, Seed: seed})
			if err != nil {
				panic(err) // every default algorithm name is one NewPolicy builds
			}
			return p
		}}
	}
	return algs
}

// Cell is one (configuration, algorithm) result.
type Cell struct {
	Config           int
	Algorithm        string
	CompletionSec    float64
	MeanInterarrival float64 // seconds per image at the client
	// Fault-injection accounting (zero when Options.Faults is unset).
	CrashesFired     int
	Retries          int
	Reinstantiations int
	Dropped          int64
	Duplicated       int64
}

// Sweep holds every cell of a sweep, grouped by algorithm, aligned by
// configuration index.
type Sweep struct {
	Opts  Options
	Cells map[string][]Cell
}

// Completions returns the per-configuration completion times of one
// algorithm, in configuration order.
func (s *Sweep) Completions(alg string) []float64 {
	cells := s.Cells[alg]
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = c.CompletionSec
	}
	return out
}

// MeanInterarrival averages the per-image interarrival time across all
// configurations of one algorithm (the paper's "average interarrival time
// for processed images at the client").
func (s *Sweep) MeanInterarrival(alg string) float64 {
	cells := s.Cells[alg]
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += c.MeanInterarrival
	}
	return sum / float64(len(cells))
}

// runSeed gives every configuration a stable seed shared by all algorithms,
// so each algorithm faces the identical workload and trace assignment.
func runSeed(base int64, config int) int64 { return base*7919 + int64(config) }

// RunSweep runs every algorithm on every configuration, drawing the links
// from the study pool of the options seed.
func RunSweep(o Options, shape core.TreeShape, algs []AlgSpec) (*Sweep, error) {
	o = o.withDefaults()
	if o.TelemetryDir != "" {
		if err := os.MkdirAll(o.TelemetryDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiment: creating telemetry dir: %w", err)
		}
	}
	assignments := GenerateAssignments(trace.NewStudyPool(o.Seed), o.Configs, o.Servers, o.Seed)

	// Cell i is configuration i/len(algs) under algorithm i%len(algs).
	results := make([]Cell, len(assignments)*len(algs))
	err := runCells(o, len(results), func(i int) (int64, error) {
		c, a := i/len(algs), algs[i%len(algs)]
		seed := runSeed(o.Seed, c)
		var rec *telemetry.Recorder
		var col *telemetry.Collector
		var sink telemetry.Sink
		if o.TelemetryDir != "" {
			rec, col = &telemetry.Recorder{}, telemetry.NewCollector()
			sink = telemetry.Multi(col, telemetry.ModelOnly(rec))
		}
		res, err := core.Run(core.RunConfig{
			Seed:       seed,
			NumServers: o.Servers,
			Shape:      shape,
			Links:      assignments[c].LinkFn(),
			Policy:     a.New(o, seed),
			Workload:   o.workloadConfig(),
			Faults:     o.Faults,
			Observe:    core.Observe{Telemetry: sink},
		})
		if err == nil && o.TelemetryDir != "" {
			err = writeCellTelemetry(o.TelemetryDir, c, a.Name, rec, col)
		}
		if err != nil {
			return 0, fmt.Errorf("config %d, %s: %w", c, a.Name, err)
		}
		results[i] = Cell{
			Config:           c,
			Algorithm:        a.Name,
			CompletionSec:    res.Completion.Seconds(),
			MeanInterarrival: res.MeanInterarrival.Seconds(),
			CrashesFired:     res.CrashesFired,
			Retries:          res.Retries,
			Reinstantiations: res.Reinstantiations,
			Dropped:          res.MessagesDropped,
			Duplicated:       res.MessagesDuplicated,
		}
		return res.KernelEvents, nil
	})
	if err != nil {
		return nil, err
	}
	sweep := &Sweep{Opts: o, Cells: make(map[string][]Cell)}
	for _, cell := range results {
		sweep.Cells[cell.Algorithm] = append(sweep.Cells[cell.Algorithm], cell)
	}
	return sweep, nil
}

// runCells runs cells 0..n-1 on at most o.Workers goroutines. cell stores
// its own result and returns the kernel events its run scheduled; o.Perf, if
// set, counts the cells as work and their events. Every failed cell is
// reported, not just the first: a sweep that dies on config 3 may also be
// dying on configs 40 and 200 for a different reason, and one error at a
// time makes that needlessly slow to see.
func runCells(o Options, n int, cell func(i int) (events int64, err error)) error {
	errs := make([]error, n)
	if o.Perf != nil {
		o.Perf.AddWork(int64(n))
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.Workers)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			events, err := cell(i)
			if err != nil {
				errs[i] = err
				return
			}
			if o.Perf != nil {
				o.Perf.AddEvents(events)
				o.Perf.WorkDone(1)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// writeCellTelemetry dumps one cell's event log and metrics into dir.
func writeCellTelemetry(dir string, config int, alg string, rec *telemetry.Recorder, col *telemetry.Collector) error {
	base := fmt.Sprintf("c%03d_%s", config, alg)
	ef, err := os.Create(filepath.Join(dir, base+".events.jsonl"))
	if err != nil {
		return fmt.Errorf("creating event log: %w", err)
	}
	if err := telemetry.WriteJSONL(ef, rec.Events()); err != nil {
		ef.Close()
		return err
	}
	if err := ef.Close(); err != nil {
		return fmt.Errorf("closing event log: %w", err)
	}
	mf, err := os.Create(filepath.Join(dir, base+".metrics.csv"))
	if err != nil {
		return fmt.Errorf("creating metrics file: %w", err)
	}
	if err := col.WriteCSV(mf); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("closing metrics file: %w", err)
	}
	return nil
}
