// Command combine runs a single wide-area data-combination simulation and
// prints its outcome: one network configuration, one combination order, one
// placement algorithm. With -tenants N > 1 it instead runs N concurrent
// query trees on one shared network (arriving open-loop at -arrival-rate)
// and reports per-tenant outcomes plus cross-tenant fairness.
//
// Examples:
//
//	combine -servers 8 -alg global -config 17
//	combine -servers 4 -alg local -shape left-deep -period 5m -iters 60
//	combine -alg download-all -v
//	combine -alg local -trace-out run.json -metrics-out run.csv
//	combine -tenants 100 -arrival-rate 2 -servers 8 -iters 10
//	combine -tenants 1000 -arrival-rate 5 -perf -progress 2s -perf-out perf.json
//
// -trace-out writes a Chrome trace-event/Perfetto timeline (open it at
// https://ui.perfetto.dev), -events-out the raw structured event log as JSON
// Lines, and -metrics-out the metrics a Collector derives from the run's
// events as CSV. -perf prints a host-process performance report
// (per-subsystem wall-time shares, events/sec), -perf-out writes it as JSON
// for `simscope perf`, -progress prints a heartbeat to stderr, and
// -cpuprofile/-memprofile capture pprof profiles labelled by subsystem and
// tenant. -allocs prints an alloc-site report (every allocation attributed
// to the subsystem that made it, joined against the //lint:allocbudget
// declarations), and -allocs-out writes it as JSON for `simscope allocs`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"wadc/internal/analysis"
	"wadc/internal/core"
	"wadc/internal/experiment"
	"wadc/internal/lint"
	"wadc/internal/metrics"
	"wadc/internal/obs"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

func main() {
	var (
		servers = flag.Int("servers", 8, "number of data servers")
		alg     = flag.String("alg", "global", "placement algorithm: download-all, one-shot, global, local")
		shape   = flag.String("shape", "binary", "combination order: binary, left-deep or greedy")
		period  = flag.Duration("period", 10*time.Minute, "relocation period for on-line algorithms")
		extra   = flag.Int("extra", 0, "extra random candidate locations (local algorithm; single runs only)")
		iters   = flag.Int("iters", workload.DefaultImagesPerServer, "images per server")
		seed    = flag.Int64("seed", 1, "random seed")
		config  = flag.Int("config", 0, "network configuration index")
		verbose = flag.Bool("v", false, "print per-image arrival times and the move log")

		tenants     = flag.Int("tenants", 1, "number of concurrent tenants (>1 switches to multi-tenant mode)")
		arrivalRate = flag.Float64("arrival-rate", 1, "tenant arrivals per simulated second (multi-tenant mode)")

		traceOut   = flag.String("trace-out", "", "write a Perfetto/Chrome trace-event timeline JSON to this file")
		eventsOut  = flag.String("events-out", "", "write the structured event log (JSON Lines) to this file")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics as CSV to this file")
		estimates  = flag.Bool("estimates", false, "track estimator accuracy: join every consumed bandwidth estimate to ground truth (requires -events-out or -trace-out; analyse with `simscope estimator`)")

		perf       = flag.Bool("perf", false, "print a host-process performance report (per-subsystem wall-time shares, events/sec)")
		perfOut    = flag.String("perf-out", "", "write the performance report as JSON to this file (render with `simscope perf`)")
		progress   = flag.Duration("progress", 0, "print a progress heartbeat to stderr at this interval (e.g. 2s; 0 disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (pprof-labelled by subsystem and tenant) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile captured after the run to this file")
		allocs     = flag.Bool("allocs", false, "print an alloc-site report: every allocation attributed to its subsystem, joined against the declared //lint:allocbudget budgets")
		allocsOut  = flag.String("allocs-out", "", "write the alloc-site report as JSON to this file (render with `simscope allocs`)")
	)
	flag.Parse()

	// Fail fast on unwritable output destinations: a long simulation must
	// not run to completion only to lose its artifacts to a typo'd path.
	for _, out := range []struct{ flag, path string }{
		{"-trace-out", *traceOut},
		{"-events-out", *eventsOut},
		{"-metrics-out", *metricsOut},
		{"-perf-out", *perfOut},
		{"-cpuprofile", *cpuProfile},
		{"-memprofile", *memProfile},
		{"-allocs-out", *allocsOut},
	} {
		if out.path == "" {
			continue
		}
		dir := filepath.Dir(out.path)
		if st, err := os.Stat(dir); err != nil {
			fmt.Fprintf(os.Stderr, "combine: %s %s: directory %s does not exist\n", out.flag, out.path, dir)
			os.Exit(2)
		} else if !st.IsDir() {
			fmt.Fprintf(os.Stderr, "combine: %s %s: %s is not a directory\n", out.flag, out.path, dir)
			os.Exit(2)
		}
	}

	// An out-of-range or inapplicable flag is a usage error, never a value
	// silently replaced or dropped. Multi-tenant runs build each tenant's
	// policy from the period and seed alone, so they cannot honour -extra.
	rateSet := false
	flag.Visit(func(f *flag.Flag) { rateSet = rateSet || f.Name == "arrival-rate" })
	for _, check := range []struct {
		ok  bool
		msg string
	}{
		{*config >= 0, "-config must be >= 0"},
		{*iters >= 1, "-iters must be at least 1"},
		{*period > 0, "-period must be positive"},
		{*tenants >= 1, "-tenants must be at least 1"},
		{*arrivalRate >= 0, "-arrival-rate must be >= 0"},
		{*progress >= 0, "-progress must be >= 0"},
		{*tenants > 1 || !rateSet, "-arrival-rate applies to multi-tenant runs only (-tenants > 1)"},
		{*tenants == 1 || *extra == 0, "-extra applies to single runs only, not with -tenants > 1"},
	} {
		if !check.ok {
			fmt.Fprintf(os.Stderr, "combine: %s\n", check.msg)
			os.Exit(2)
		}
	}
	policy, err := core.NewPolicy(*alg, core.PolicyOptions{Period: *period, Extra: *extra, Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "combine: %v\n", err)
		os.Exit(2)
	}
	treeShape, err := core.ParseShape(*shape)
	if err != nil {
		fmt.Fprintf(os.Stderr, "combine: %v\n", err)
		os.Exit(2)
	}

	pool := trace.NewStudyPool(*seed)
	assignment := experiment.GenerateAssignments(pool, *config+1, *servers, *seed)[*config]

	// The timeline and event log want only model-level events, the metrics
	// CSV a collector; both are attached lazily so a plain run carries no
	// telemetry at all.
	var rec *telemetry.Recorder
	var col *telemetry.Collector
	var sinks []telemetry.Sink
	if *traceOut != "" || *eventsOut != "" {
		rec = &telemetry.Recorder{}
		sinks = append(sinks, telemetry.ModelOnly(rec))
	}
	if *estimates && rec == nil {
		fmt.Fprintln(os.Stderr, "combine: -estimates needs a telemetry destination (-events-out or -trace-out)")
		os.Exit(2)
	}
	if *metricsOut != "" {
		col = telemetry.NewCollector()
		sinks = append(sinks, col)
	}

	// Host-process performance instrumentation: one recorder feeds the
	// report, the heartbeat, and the pprof labels. A nil recorder keeps
	// every kernel hook on the zero-cost disabled path.
	var perfRec *obs.Recorder
	if *perf || *perfOut != "" || *progress > 0 || *cpuProfile != "" {
		perfRec = obs.NewRecorder()
	}
	var heartbeat *obs.Progress
	if *progress > 0 {
		heartbeat = obs.NewProgress(perfRec, os.Stderr, *progress)
		heartbeat.Start()
	}
	stopProfiles := startProfiles(*cpuProfile, *memProfile)

	runSeed := *seed*7919 + int64(*config)
	wl := workload.Config{
		ImagesPerServer: *iters,
		MeanBytes:       workload.DefaultMeanBytes,
		SpreadFrac:      workload.DefaultSpreadFrac,
	}
	observe := core.Observe{Telemetry: telemetry.Multi(sinks...), Perf: perfRec, Estimates: *estimates}
	// The alloc capture brackets the whole run, so a hot site anywhere in
	// the simulation is attributed; a run without it never arms the profiler.
	var capture *obs.AllocCapture
	if *allocs || *allocsOut != "" {
		capture = obs.StartAllocCapture()
	}
	var report func()
	var perfRep *obs.Report
	var delivered int64
	if *tenants > 1 {
		specs := tenant.Population(tenant.PopulationConfig{
			N: *tenants, ArrivalRate: *arrivalRate, Seed: runSeed,
			NumServers: *servers, Iterations: *iters, Algorithms: []string{*alg},
		})
		for i := range specs {
			specs[i].Shape = *shape
		}
		var res core.MultiResult
		res, err = core.RunMulti(core.MultiConfig{
			Seed: runSeed, NumServers: *servers, Links: assignment.LinkFn(),
			Tenants: specs, Workload: wl, Period: *period, Observe: observe,
		})
		for _, t := range res.Tenants {
			delivered += int64(t.Delivered)
		}
		perfRep = res.Perf
		report = func() { printMulti(&res, *tenants, *alg, *arrivalRate, *servers, *verbose) }
	} else {
		var res core.RunResult
		res, err = core.Run(core.RunConfig{
			Seed: runSeed, NumServers: *servers, Shape: treeShape,
			Links: assignment.LinkFn(), Policy: policy, Workload: wl, Observe: observe,
		})
		delivered = int64(len(res.Arrivals))
		perfRep = res.Perf
		report = func() { printRun(&res, *servers, treeShape, *verbose) }
	}
	allocRep := capture.Finish(delivered)
	stopProfiles()
	if heartbeat != nil {
		heartbeat.Stop()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "combine: %v\n", err)
		os.Exit(1)
	}

	// Host i is server i; the last host is the client (the shared layout).
	hostNames := make([]string, *servers+1)
	for i := 0; i < *servers; i++ {
		hostNames[i] = fmt.Sprintf("s%d", i)
	}
	hostNames[*servers] = "client"
	for _, out := range []struct {
		path string
		emit func(*os.File) error
	}{
		{*traceOut, func(f *os.File) error { return telemetry.WritePerfetto(f, rec.Events(), hostNames) }},
		{*eventsOut, func(f *os.File) error { return telemetry.WriteJSONL(f, rec.Events()) }},
		{*metricsOut, func(f *os.File) error { return col.WriteCSV(f) }},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.emit); err != nil {
			fmt.Fprintf(os.Stderr, "combine: %v\n", err)
			os.Exit(1)
		}
	}

	report()
	emitPerfReport(perfRep, *perf, *perfOut)
	emitAllocReport(allocRep, *allocs, *allocsOut)
}

// printRun prints a single run's outcome.
func printRun(res *core.RunResult, servers int, shape core.TreeShape, verbose bool) {
	fmt.Printf("algorithm:          %s\n", res.Algorithm)
	fmt.Printf("servers:            %d (%s tree)\n", servers, shape)
	fmt.Printf("images delivered:   %d\n", len(res.Arrivals))
	fmt.Printf("completion time:    %.1fs\n", res.Completion.Seconds())
	fmt.Printf("mean interarrival:  %.1fs/image\n", res.MeanInterarrival.Seconds())
	fmt.Printf("operator moves:     %d (%d coordinated change-overs)\n", res.Moves, res.Switches)
	if res.Decisions.Decisions > 0 {
		fmt.Printf("decisions:          %d (%d candidates scored, %d moves chosen, %.1fs predicted gain)\n",
			res.Decisions.Decisions, res.Decisions.Candidates,
			res.Decisions.Moves, res.Decisions.PredictedGain)
	}
	printLoad(&res.Shared)
	fmt.Printf("initial placement:  %s\n", res.InitialPlacement)
	fmt.Printf("final placement:    %s\n", res.FinalPlacement)
	if verbose {
		fmt.Println("\nmove log:")
		for _, mv := range res.MoveLog {
			kind := "local"
			if mv.Barrier {
				kind = "barrier"
			}
			fmt.Printf("  %9.1fs  op%d  h%d -> h%d  (%s)\n",
				mv.At.Seconds(), mv.Op, mv.From, mv.To, kind)
		}
		fmt.Println("\narrivals:")
		for i, at := range res.Arrivals {
			fmt.Printf("  image %3d at %9.1fs\n", i, at.Seconds())
		}
	}
}

// printMulti prints per-tenant outcomes plus the cross-tenant fairness
// statistics of a multi-tenant run.
func printMulti(res *core.MultiResult, tenants int, alg string, arrivalRate float64, servers int, verbose bool) {
	var latencies, throughputs []float64
	for _, tr := range res.Tenants {
		if tr.Completed && tr.Delivered > 0 {
			latencies = append(latencies, tr.MeanLatency.Seconds())
			// Per-tenant rates are fractions of an iteration per second;
			// report iters/hour so the summary stays readable at %.2f.
			throughputs = append(throughputs, tr.Throughput*3600)
		}
	}
	fmt.Printf("tenants:            %d (%s, %.2f arrivals/s)\n", tenants, alg, arrivalRate)
	fmt.Printf("servers:            %d shared hosts\n", servers)
	fmt.Printf("completed/aborted:  %d / %d\n", res.Completed, res.Aborted)
	fmt.Printf("jain fairness:      %.4f (iteration throughput)\n", res.JainFairness)
	fmt.Printf("mean latency:       %s\n", metrics.Summarize(latencies))
	fmt.Printf("throughput:         %s (iters/hour)\n", metrics.Summarize(throughputs))
	printLoad(&res.Shared)

	// The busiest contended links: where tenants actually collide.
	contended := 0
	for _, ls := range res.LinkShares {
		if ls.Share < 1 {
			contended++
		}
	}
	fmt.Printf("contention:         %d of %d (link, tenant) shares on shared links\n",
		contended, len(res.LinkShares))

	if verbose {
		fmt.Println("\nper-tenant outcomes:")
		tbl := metrics.NewTable("id", "alg", "arrive-s", "depart-s", "iters", "latency-s", "tput/s", "status")
		for _, tr := range res.Tenants {
			status := "completed"
			if tr.Aborted {
				status = "aborted"
			}
			tbl.AddRow(tr.Spec.ID, tr.Spec.Algorithm,
				tr.ArrivedAt.Seconds(), tr.DepartedAt.Seconds(),
				tr.Delivered, tr.MeanLatency.Seconds(), tr.Throughput, status)
		}
		fmt.Print(tbl)
		fmt.Println("\nper-tenant traffic:")
		ttbl := metrics.NewTable("tenant", "transfers", "MB", "busy-s")
		for _, tt := range res.TenantTraffic {
			ttbl.AddRow(tt.Tenant, tt.Transfers,
				float64(tt.Bytes)/(1<<20), tt.Busy.Seconds())
		}
		fmt.Print(ttbl)
	}
}

// printLoad prints the monitoring and network lines both modes share.
func printLoad(s *core.Shared) {
	fmt.Printf("monitoring:         %d probes, %d passive measurements, %.0f%% cache hits\n",
		s.Probes, s.PassiveMeasurements, s.CacheHitRate*100)
	fmt.Printf("network:            %d transfers, %.1f MB moved\n",
		s.NetworkTransfers, float64(s.BytesMoved)/(1<<20))
}

// emitPerfReport prints and/or writes the host-process performance report;
// a nil report (instrumentation off) is a no-op.
func emitPerfReport(rep *obs.Report, print bool, outPath string) {
	if rep == nil {
		return
	}
	if print {
		fmt.Println()
		fmt.Print(rep.Format())
	}
	if outPath != "" {
		if err := writeFile(outPath, func(f *os.File) error { return rep.WriteJSON(f) }); err != nil {
			fmt.Fprintf(os.Stderr, "combine: %v\n", err)
			os.Exit(1)
		}
	}
}

// emitAllocReport prints and/or writes the alloc-site report. The printed
// form includes the budget-verification join when the annotated source tree
// (the enclosing Go module) is reachable from the working directory; the
// JSON form carries only the measured profile so it stays reproducible.
func emitAllocReport(rep *obs.AllocReport, print bool, outPath string) {
	if rep == nil {
		return
	}
	if print {
		fmt.Println()
		fmt.Print(rep.Format(20))
		if root := lint.FindModuleRoot(); root == "" {
			fmt.Println("budget verification skipped: no go.mod above the working directory")
		} else if budgets, err := lint.CollectBudgets(root); err != nil {
			fmt.Fprintf(os.Stderr, "combine: collecting budgets: %v\n", err)
		} else {
			v := analysis.VerifyBudgets(rep, budgets)
			analysis.WriteAllocVerification(os.Stdout, v, rep)
		}
	}
	if outPath != "" {
		if err := writeFile(outPath, func(f *os.File) error { return rep.WriteJSON(f) }); err != nil {
			fmt.Fprintf(os.Stderr, "combine: %v\n", err)
			os.Exit(1)
		}
	}
}

// startProfiles begins CPU profiling if requested and returns a stop
// function that also captures the heap profile; empty paths make both
// no-ops. The stop function runs immediately after the simulation so the
// profiles cover only the run, not report rendering.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "combine: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "combine: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := writeFile(memPath, func(f *os.File) error { return pprof.WriteHeapProfile(f) }); err != nil {
				fmt.Fprintf(os.Stderr, "combine: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// writeFile creates path, runs emit on it and closes it, folding the close
// error in (the buffered exporters flush inside emit).
func writeFile(path string, emit func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
