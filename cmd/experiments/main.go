// Command experiments regenerates the paper's figures. Each figure's full
// parameterisation (300 configurations, 8 servers, 180 images/server,
// 10-minute relocation period) is the default; -configs and -iters trim the
// sweep for quick runs.
//
// Examples:
//
//	experiments -fig 6                 # the main result, full scale
//	experiments -fig all -configs 50   # every figure at reduced scale
//	experiments -fig 8 -configs 100    # the server-scaling sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wadc/internal/experiment"
	"wadc/internal/obs"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 2, 6, 7, 8, 9, 10, discussion, ordering, ablations, faults, multitenant, estimator or all")
		configs  = flag.Int("configs", 300, "number of network configurations")
		servers  = flag.Int("servers", 8, "number of servers (every figure but 2, and 8, which sweeps 4 to 32)")
		iters    = flag.Int("iters", 180, "images per server")
		seed     = flag.Int64("seed", 1, "random seed")
		period   = flag.Duration("period", 10*time.Minute, "relocation period (every figure but 2, and 9, which sweeps 2m to 1h)")
		workers  = flag.Int("workers", 0, "max concurrent simulations (0: number of CPUs)")
		telDir   = flag.String("telemetry-dir", "", "write per-cell event logs and metrics into this directory")
		progress = flag.Duration("progress", 0, "print a sweep progress heartbeat to stderr at this interval (e.g. 5s; 0 disables)")
	)
	flag.Parse()
	// An out-of-range value is a usage error, not a cue to fall back to the
	// paper's default.
	for _, check := range []struct {
		ok  bool
		msg string
	}{
		{*configs >= 1, "-configs must be at least 1"},
		{*servers >= 2, "-servers must be at least 2"},
		{*iters >= 1, "-iters must be at least 1"},
		{*period > 0, "-period must be positive"},
		{*workers >= 0, "-workers must be >= 0"},
		{*progress >= 0, "-progress must be >= 0"},
	} {
		if !check.ok {
			fmt.Fprintf(os.Stderr, "experiments: %s\n", check.msg)
			os.Exit(2)
		}
	}

	opts := experiment.Options{
		Configs:      *configs,
		Servers:      *servers,
		Iterations:   *iters,
		Seed:         *seed,
		Period:       *period,
		Workers:      *workers,
		TelemetryDir: *telDir,
	}
	// The sweep heartbeat counts simulation cells: each figure's cell pool
	// adds its cells to the work meter as it starts and marks them done as
	// they finish, so one recorder spans all requested figures.
	if *progress > 0 {
		opts.Perf = obs.NewRecorder()
		hb := obs.NewProgress(opts.Perf, os.Stderr, *progress)
		hb.Start()
		defer hb.Stop()
	}
	want := func(f string) bool { return *fig == "all" || *fig == f }
	//lint:allow-walltime progress display only; simulated time never sees it
	start := time.Now()
	ran := 0

	if want("2") {
		fmt.Println(experiment.Figure2(*seed, 0).Render())
		ran++
	}
	if want("6") {
		r, err := experiment.Figure6(opts)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("7") {
		r, err := experiment.Figure7(opts)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("8") {
		r, err := experiment.Figure8(opts, nil)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("9") {
		r, err := experiment.Figure9(opts, nil)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("10") {
		r, err := experiment.Figure10(opts)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("discussion") {
		// The oracle scoring is expensive; cap the sweep.
		do := opts
		if do.Configs > 30 {
			do.Configs = 30
		}
		r, err := experiment.Discussion(do)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("ordering") {
		r, err := experiment.Ordering(opts)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("ablations") {
		ao := opts
		if ao.Configs > 40 {
			ao.Configs = 40
		}
		r, err := experiment.Ablations(ao)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("faults") {
		// Each fault rate is a full four-algorithm sweep; cap the configs.
		fo := opts
		if fo.Configs > 40 {
			fo.Configs = 40
		}
		r, err := experiment.FigureFaults(fo, nil)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("multitenant") {
		r, err := experiment.MultiTenant(opts, nil)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if want("estimator") {
		r, err := experiment.FigureEstimator(opts)
		exitOn(err)
		fmt.Println(r.Render())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 2, 6, 7, 8, 9, 10, discussion, ordering, ablations, faults, multitenant, estimator or all)\n", *fig)
		os.Exit(2)
	}
	//lint:allow-walltime progress display only; simulated time never sees it
	fmt.Printf("%s\n[%d figure(s) in %v]\n", strings.Repeat("-", 60), ran, time.Since(start).Round(time.Second))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
