package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wadc/internal/obs"
)

//go:embed golden.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // how long the timed phase may take
	traced   bool
	workers  int
	sc       scale
	golden   map[string]string // "<workload>/<seed>" -> round digest
	outDir   string            // where the traced run writes spans and profiles
}

// run parses the command line, runs the benchmark and returns the exit code:
// 0 when the outputs are correct, 1 when they are not or the run failed, 2
// for a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wadcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", workloadNames[0], "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 35, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "wadcbench: reading golden digests: %v\n", err)
		return 1
	}
	return bench(config{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		workers:  runtime.GOMAXPROCS(0),
		sc:       fullScale,
		golden:   golden,
		outDir:   ".bench_build/trace",
	}, stdout, stderr)
}

// round is one pass over every op of the workload.
type round struct {
	traced  bool
	wall    time.Duration
	cpu     time.Duration
	rt      [len(runtimeNames)]float64 // runtime counter deltas
	results []opResult
	opWalls []time.Duration
	digest  string
	profile []byte
	samples map[string]int64
}

func bench(cfg config, stdout, stderr io.Writer) int {
	var spans *spanLog
	if cfg.traced {
		spans = newSpanLog()
	}

	var in inputs
	var setups []setupTimes
	for i := 0; i < max(cfg.sc.setupReps, 1); i++ {
		runtime.GC()
		var st setupTimes
		in, st = setup(cfg.workload, cfg.seed, cfg.sc, spans)
		setups = append(setups, st)
	}
	opList := ops(cfg.workload, in, cfg.sc)
	opName := "core.Run"
	if cfg.workload == "shared-wan" {
		opName = "core.RunMulti"
	}

	// Closed loop: rounds run back to back until another round would
	// overrun the budget. The traced run alternates untraced and traced
	// rounds, so tracing.overhead compares rounds of one process.
	runtime.GC()
	start := time.Now()
	var rounds []round
	for {
		var rs *spanLog
		if cfg.traced && len(rounds)%2 == 1 {
			rs = spans
		}
		r, err := runRound(opList, cfg.workers, opName, rs)
		if err != nil {
			fmt.Fprintf(stderr, "wadcbench: %v\n", err)
			return 1
		}
		rounds = append(rounds, r)
		if cfg.traced && len(rounds) < 2 {
			continue
		}
		if time.Since(start)+median(roundWalls(rounds)) > cfg.budget {
			break
		}
	}

	for i, r := range rounds {
		fmt.Fprintf(stdout, "round %d traced=%v wall %.3fs cpu %.3fs\n", i, r.traced, r.wall.Seconds(), r.cpu.Seconds())
	}
	correct, attempted, failed := check(cfg, rounds, stdout, stderr)
	var m map[string]float64
	var defs []metricDef
	if cfg.traced {
		defs = perLayer
		m = layerMetrics(cfg, setups, rounds, spans, attempted, failed)
		prefix := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		var profiles [][]byte
		for _, r := range rounds {
			if r.traced {
				profiles = append(profiles, r.profile)
			}
		}
		if err := writeTraceFiles(cfg.outDir, prefix, spans, profiles); err != nil {
			fmt.Fprintf(stderr, "wadcbench: writing trace files: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace files: %s/%s.*\n", cfg.outDir, prefix)
	} else {
		defs = endToEnd
		var err error
		m, err = endToEndMetrics(setups, rounds, attempted, failed)
		if err != nil {
			fmt.Fprintf(stderr, "wadcbench: %v\n", err)
			return 1
		}
	}
	if err := printResult(stdout, defs, m, correct, attempted, failed); err != nil {
		fmt.Fprintf(stderr, "wadcbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// runRound runs every op once on a closed loop of workers: each worker takes
// the next op as soon as its previous one finishes. A non-nil spans makes
// it a traced round: spans around each op, a region-clock recorder on each
// op's kernel, and a CPU profile of the round.
func runRound(ops []opFunc, workers int, opName string, spans *spanLog) (round, error) {
	r := round{traced: spans != nil, results: make([]opResult, len(ops)), opWalls: make([]time.Duration, len(ops))}
	var prof bytes.Buffer
	if r.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile() // for error returns; stopping twice is harmless
	}
	rt0 := readRuntime()
	cpu0, err := cpuTime()
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	roundSpan := spans.begin("round", -1, -1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(ops)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				var tr *opTrace
				if r.traced {
					tr = &opTrace{spans: spans, span: spans.begin(opName, roundSpan, i), op: i, rec: obs.NewRecorder()}
				}
				opStart := time.Now()
				r.results[i] = ops[i](tr)
				r.opWalls[i] = time.Since(opStart)
				if tr != nil {
					spans.end(tr.span)
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(t0)
	spans.end(roundSpan)
	cpu1, err := cpuTime()
	if err != nil {
		return r, err
	}
	r.cpu = cpu1 - cpu0
	rt1 := readRuntime()
	for i := range rt1 {
		r.rt[i] = rt1[i] - rt0[i]
	}
	if r.traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
		if r.samples, err = profileSamples(r.profile); err != nil {
			return r, err
		}
	}
	r.digest = roundDigest(r.results)
	return r, nil
}

// check verifies the simulated outputs: every op completed and delivered
// every requested image, every round has the same digest, and that digest
// matches the golden one when the seed has one.
func check(cfg config, rounds []round, stdout, stderr io.Writer) (correct bool, attempted, failed int) {
	correct = true
	for ri, r := range rounds {
		for i, res := range r.results {
			attempted++
			switch {
			case res.err != nil:
				failed++
				correct = false
				fmt.Fprintf(stderr, "wadcbench: round %d op %d: %v\n", ri, i, res.err)
			case res.c.images != res.want:
				correct = false
				fmt.Fprintf(stderr, "wadcbench: round %d op %d: delivered %d of %d images\n", ri, i, res.c.images, res.want)
			}
		}
		if r.digest != rounds[0].digest {
			correct = false
			fmt.Fprintf(stderr, "wadcbench: round %d digest %s differs from round 0 digest %s\n", ri, r.digest, rounds[0].digest)
		}
	}
	key := fmt.Sprintf("%s/%d", cfg.workload, cfg.seed)
	fmt.Fprintf(stdout, "digest %s %s\n", key, rounds[0].digest)
	switch want, ok := cfg.golden[key]; {
	case !ok:
		fmt.Fprintf(stdout, "outputs unverified: no golden digest for %s; invariants checked only\n", key)
	case want != rounds[0].digest:
		correct = false
		fmt.Fprintf(stderr, "wadcbench: digest mismatch for %s: got %s, golden %s\n", key, rounds[0].digest, want)
	default:
		fmt.Fprintf(stdout, "outputs verified against the golden digest for %s\n", key)
	}
	return correct, attempted, failed
}

// metricDef declares one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json declares
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"iters_per_s", "images/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"completed_frac", "ratio"},
}

// wallShareSubsystems are the region clock's subsystems, in report order.
var wallShareSubsystems = []string{"sim", "netmodel", "dataflow", "placement", "recovery", "setup", "other"}

// cpuSharePackages are the packages whose CPU-profile share is reported.
var cpuSharePackages = []string{"monitor", "plan", "placement", "sim", "netmodel", "dataflow", "runtime"}

// perLayer are the metrics of a traced run, as BENCHMARK.json declares them.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.pool_s", "s"}, {"experiment.assign_s", "s"}, {"tenant.population_s", "s"},
		{"monitor.probes", "count"}, {"monitor.passive", "count"}, {"monitor.cache_hit_rate", "ratio"},
		{"placement.decisions", "count"}, {"placement.candidates", "count"}, {"placement.moves", "count"},
		{"placement.initial_ms", "ms"},
		{"sim.events", "count"}, {"sim.events_per_s", "1/s"},
		{"netmodel.transfers", "count"}, {"netmodel.mb_moved", "MB"},
		{"dataflow.iters", "count"}, {"dataflow.moves", "count"}, {"dataflow.switches", "count"},
		{"dataflow.forwarded", "count"}, {"dataflow.retries", "count"}, {"dataflow.reinstantiations", "count"},
		{"faults.crashes", "count"}, {"faults.dropped", "count"}, {"faults.duplicated", "count"},
		{"faults.transfers_cut", "count"},
		{"runtime.alloc_mb", "MB"}, {"runtime.allocs_per_iter", "count"}, {"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"experiment.cells", "count"}, {"experiment.cell_p50_ms", "ms"}, {"experiment.cell_p90_ms", "ms"},
		{"experiment.worker_idle_frac", "ratio"},
		{"tracing.overhead", "ratio"},
		{"failed_frac", "ratio"},
	}
	for _, p := range cpuSharePackages {
		defs = append(defs, metricDef{p + ".cpu_share", "ratio"})
	}
	for _, s := range wallShareSubsystems {
		defs = append(defs, metricDef{s + ".wall_share", "ratio"})
	}
	return defs
}()

func endToEndMetrics(setups []setupTimes, rounds []round, attempted, failed int) (map[string]float64, error) {
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	var ips, cpu []float64
	for _, r := range rounds {
		ips = append(ips, float64(roundCounts(r).images)/r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
	}
	return map[string]float64{
		"setup_s":        median(setupSeconds(setups, setupTimes.total)),
		"iters_per_s":    median(ips),
		"cpu_s":          median(cpu),
		"peak_rss_mb":    rss,
		"completed_frac": float64(attempted-failed) / float64(attempted),
	}, nil
}

func layerMetrics(cfg config, setups []setupTimes, rounds []round, spans *spanLog, attempted, failed int) map[string]float64 {
	c := roundCounts(rounds[0])
	var untraced, traced []round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	untracedWall := median(roundWalls(untraced))
	m := map[string]float64{
		"trace.pool_s":        median(setupSeconds(setups, func(s setupTimes) time.Duration { return s.pool })),
		"experiment.assign_s": median(setupSeconds(setups, func(s setupTimes) time.Duration { return s.assign })),
		"tenant.population_s": median(setupSeconds(setups, func(s setupTimes) time.Duration { return s.population })),

		"monitor.probes":         float64(c.probes),
		"monitor.passive":        float64(c.passive),
		"monitor.cache_hit_rate": ratio(c.hitRateSum, float64(c.hitRateN)),
		"placement.decisions":    float64(c.decisions),
		"placement.candidates":   float64(c.candidates),
		"placement.moves":        float64(c.decMoves),
		"sim.events":             float64(c.events),
		"sim.events_per_s":       ratio(float64(c.events), untracedWall.Seconds()),
		"netmodel.transfers":     float64(c.transfers),
		"netmodel.mb_moved":      float64(c.bytes) / 1e6,

		"dataflow.iters":            float64(c.images),
		"dataflow.moves":            float64(c.moves),
		"dataflow.switches":         float64(c.switches),
		"dataflow.forwarded":        float64(c.forwarded),
		"dataflow.retries":          float64(c.retries),
		"dataflow.reinstantiations": float64(c.reinstantiations),
		"faults.crashes":            float64(c.crashes),
		"faults.dropped":            float64(c.dropped),
		"faults.duplicated":         float64(c.duplicated),
		"faults.transfers_cut":      float64(c.transfersCut),

		"experiment.cells": float64(len(rounds[0].results)),
		"tracing.overhead": ratio(median(roundWalls(traced)).Seconds(), untracedWall.Seconds()),
		"failed_frac":      float64(failed) / float64(attempted),
	}

	// Runtime counters come from the untraced rounds, per round.
	var allocMB, allocs, gcs, gcCPU, totalCPU []float64
	for _, r := range untraced {
		allocMB = append(allocMB, r.rt[rtAllocBytes]/1e6)
		allocs = append(allocs, r.rt[rtAllocObjects])
		gcs = append(gcs, r.rt[rtGCCycles])
		gcCPU = append(gcCPU, r.rt[rtGCCPU])
		totalCPU = append(totalCPU, r.rt[rtTotalCPU])
	}
	m["runtime.alloc_mb"] = median(allocMB)
	m["runtime.allocs_per_iter"] = ratio(median(allocs), float64(c.images))
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.gc_cpu_frac"] = ratio(sum(gcCPU), sum(totalCPU))

	// Times and shares come from the traced rounds.
	var initMs []float64
	for _, d := range spans.durations(initialPlacementSpan) {
		initMs = append(initMs, d.Seconds()*1e3)
	}
	var busy, capacity float64
	var opWalls []time.Duration
	samples := map[string]int64{}
	var sampleTotal int64
	wall := map[string]int64{}
	var wallTotal int64
	for _, r := range traced {
		for _, res := range r.results {
			if res.perf != nil {
				for _, s := range res.perf.Subsystems {
					wall[s.Name] += s.WallNs
					wallTotal += s.WallNs
				}
			}
		}
		for _, w := range r.opWalls {
			busy += w.Seconds()
		}
		capacity += float64(min(cfg.workers, len(r.results))) * r.wall.Seconds()
		opWalls = append(opWalls, r.opWalls...)
		for p, n := range r.samples {
			samples[p] += n
			sampleTotal += n
		}
	}
	m["placement.initial_ms"] = ratio(sum(initMs), float64(len(initMs)))
	m["experiment.cell_p50_ms"] = percentile(opWalls, 0.50).Seconds() * 1e3
	m["experiment.cell_p90_ms"] = percentile(opWalls, 0.90).Seconds() * 1e3
	m["experiment.worker_idle_frac"] = 1 - ratio(busy, capacity)
	for _, p := range cpuSharePackages {
		m[p+".cpu_share"] = ratio(float64(samples[p]), float64(sampleTotal))
	}
	for _, s := range wallShareSubsystems {
		m[s+".wall_share"] = ratio(float64(wall[s]), float64(wallTotal))
	}
	return m
}

// printResult prints every metric as a readable line, then the result as
// one JSON object on the last line.
func printResult(w io.Writer, defs []metricDef, m map[string]float64, correct bool, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-28s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func roundCounts(r round) counts {
	var c counts
	for _, res := range r.results {
		c.add(res.c)
	}
	return c
}

func roundWalls(rounds []round) []time.Duration {
	out := make([]time.Duration, len(rounds))
	for i, r := range rounds {
		out[i] = r.wall
	}
	return out
}

func setupSeconds(setups []setupTimes, part func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(setups))
	for i, s := range setups {
		out[i] = part(s).Seconds()
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank q-quantile of ds, or 0 for none.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeNames are the runtime/metrics counters read around each round.
var runtimeNames = [...]string{
	rtAllocBytes:   "/gc/heap/allocs:bytes",
	rtAllocObjects: "/gc/heap/allocs:objects",
	rtGCCycles:     "/gc/cycles/total:gc-cycles",
	rtGCCPU:        "/cpu/classes/gc/total:cpu-seconds",
	rtTotalCPU:     "/cpu/classes/total:cpu-seconds",
}

const (
	rtAllocBytes = iota
	rtAllocObjects
	rtGCCycles
	rtGCCPU
	rtTotalCPU
)

func readRuntime() [len(runtimeNames)]float64 {
	samples := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	var out [len(runtimeNames)]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
