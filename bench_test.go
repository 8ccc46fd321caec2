// Package wadc_test benchmarks regenerate every figure of the paper's
// evaluation (§5) at reduced scale, plus microbenchmarks of the substrates.
// Each BenchmarkFigureN corresponds to the paper figure of the same number;
// the figures' full-scale numbers are produced by cmd/experiments and
// recorded in EXPERIMENTS.md. Benchmarks report the headline metric of the
// figure (median or mean speedup over download-all) via b.ReportMetric.
package wadc_test

import (
	"testing"
	"time"

	"wadc/internal/core"
	"wadc/internal/experiment"
	"wadc/internal/metrics"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/tenant"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// benchOpts is the reduced scale used by the figure benchmarks: enough
// configurations and iterations for the qualitative shape to hold while one
// benchmark iteration stays in the hundreds of milliseconds.
func benchOpts() experiment.Options {
	return experiment.Options{
		Configs:    4,
		Servers:    8,
		Iterations: 40,
		Seed:       1,
		Period:     5 * time.Minute,
	}
}

// BenchmarkFigure2TraceVariation regenerates Figure 2: the bandwidth
// variability of one synthetic host-pair trace over ten minutes and two
// days, with the >= 10 % change-interval calibration statistic.
func BenchmarkFigure2TraceVariation(b *testing.B) {
	var interval time.Duration
	for i := 0; i < b.N; i++ {
		r := experiment.Figure2(1, i)
		interval = r.Stats.SignificantChangeInterval
	}
	b.ReportMetric(interval.Seconds(), "change-interval-s")
}

// BenchmarkFigure6Relocation regenerates Figure 6: speedup of one-shot,
// global and local relocation over download-all across network
// configurations (paper: all relocation algorithms win; global achieves a
// median ~1.4x over one-shot and ~1.25x over local).
func BenchmarkFigure6Relocation(b *testing.B) {
	var r *experiment.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metrics.Median(r.Speedups["global"]), "global-median-speedup")
	b.ReportMetric(metrics.Median(r.Speedups["one-shot"]), "oneshot-median-speedup")
	b.ReportMetric(metrics.Median(r.Speedups["local"]), "local-median-speedup")
}

// BenchmarkFigure7ExtraLocations regenerates Figure 7: the local algorithm
// with k = 0..6 extra random candidate locations (paper: no significant
// difference).
func BenchmarkFigure7ExtraLocations(b *testing.B) {
	o := benchOpts()
	o.Configs = 2
	var r *experiment.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Figure7(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgSpeedup[0], "k0-avg-speedup")
	b.ReportMetric(r.AvgSpeedup[len(r.AvgSpeedup)-1], "k6-avg-speedup")
}

// BenchmarkFigure8ServerScaling regenerates Figure 8: average speedup as the
// number of servers grows (paper: global scales best; local's convergence
// problem worsens with size).
func BenchmarkFigure8ServerScaling(b *testing.B) {
	o := benchOpts()
	o.Configs = 2
	var r *experiment.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Figure8(o, []int{4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.Servers) - 1
	b.ReportMetric(r.AvgSpeedup["global"][last], "global-at-max-servers")
	b.ReportMetric(r.AvgSpeedup["local"][last], "local-at-max-servers")
}

// BenchmarkFigure9RelocationPeriod regenerates Figure 9: the global
// algorithm's speedup across relocation periods (paper: 5-10 minutes wins).
func BenchmarkFigure9RelocationPeriod(b *testing.B) {
	o := benchOpts()
	o.Configs = 2
	periods := []time.Duration{2 * time.Minute, 10 * time.Minute, time.Hour}
	var r *experiment.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Figure9(o, periods)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, p := range periods {
		b.ReportMetric(r.AvgSpeedup[i], "speedup@"+p.String())
	}
}

// BenchmarkFigure10TreeShape regenerates Figure 10: complete-binary vs
// left-deep combination orders (paper: the bushy order adapts better).
func BenchmarkFigure10TreeShape(b *testing.B) {
	o := benchOpts()
	o.Configs = 2
	var r *experiment.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Figure10(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metrics.Mean(r.Speedups["complete-binary"]["global"]), "binary-global-speedup")
	b.ReportMetric(metrics.Mean(r.Speedups["left-deep"]["global"]), "leftdeep-global-speedup")
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the substrates.
// ---------------------------------------------------------------------------

// BenchmarkSimKernelEvents measures raw event throughput of the
// discrete-event kernel (callback events, no process switches).
func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Second, tick)
		}
	}
	k.After(time.Second, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(k.Scheduled())/secs, "events/s")
	}
}

// BenchmarkSimProcessSwitch measures the goroutine-process context-switch
// cost (one Hold per iteration).
func BenchmarkSimProcessSwitch(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("holder", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(time.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceTransferDuration measures piecewise-constant bandwidth
// integration over a two-day trace.
func BenchmarkTraceTransferDuration(b *testing.B) {
	tr := trace.Generate("bench", 1, trace.KBps(40), trace.StudySwitchProb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.TransferDuration(sim.Time(i%1000)*sim.Minute, 128*1024)
	}
}

// BenchmarkTraceGenerate measures synthetic two-day trace generation.
func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = trace.Generate("bench", int64(i), trace.KBps(40), trace.StudySwitchProb)
	}
}

// BenchmarkOneShotOptimize measures one decision of the §2.1 optimiser on an
// 8-server tree with a 9-host candidate set, as a placer makes it: on a warm
// evaluator that the decision resets to its snapshot.
func BenchmarkOneShotOptimize(b *testing.B) {
	tree := plan.CompleteBinary(8)
	sh, ch := plan.DefaultHostAssignment(8)
	initial := plan.NewPlacement(tree, sh, ch)
	model := plan.DefaultCostModel(128 * 1024)
	hosts := make([]netmodel.HostID, 9)
	for i := range hosts {
		hosts[i] = netmodel.HostID(i)
	}
	bw := func(a, c netmodel.HostID) trace.Bandwidth {
		return trace.Bandwidth(10000 + 1000*int(a+c)%50000)
	}
	ev := model.NewEvaluator(initial, hosts, nil)
	_ = placement.OneShotOptimizeAudited(ev, initial, hosts, bw, placement.Decision{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = placement.OneShotOptimizeAudited(ev, initial, hosts, bw, placement.Decision{})
	}
}

// benchMultiTenant measures one multi-tenant simulation: n concurrent query
// trees (the standard four-policy mix) arriving open-loop onto one shared
// 8-host network.
func benchMultiTenant(b *testing.B, n int) {
	links := func(a, c netmodel.HostID) *trace.Trace {
		return trace.Constant("l", 128*1024)
	}
	specs := tenant.Population(tenant.PopulationConfig{
		N: n, ArrivalRate: 10, Seed: 1, NumServers: 3, Iterations: 4,
	})
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := core.RunMulti(core.MultiConfig{
			Seed: 1, NumServers: 8,
			Links:    links,
			Tenants:  specs,
			Workload: workload.Config{ImagesPerServer: 4, MeanBytes: 64 * 1024, SpreadFrac: 0.1},
			Period:   5 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != n {
			b.Fatalf("completed %d of %d tenants", res.Completed, n)
		}
		events += res.KernelEvents
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}

// BenchmarkMultiTenant10/100/1000 measure how RunMulti scales with the
// tenant count: the shared kernel and network are the constants, the
// per-tenant dataflow graphs are the variable.
func BenchmarkMultiTenant10(b *testing.B)   { benchMultiTenant(b, 10) }
func BenchmarkMultiTenant100(b *testing.B)  { benchMultiTenant(b, 100) }
func BenchmarkMultiTenant1000(b *testing.B) { benchMultiTenant(b, 1000) }

// BenchmarkSingleRun measures one complete 8-server, 60-image simulation
// under the global algorithm.
func BenchmarkSingleRun(b *testing.B) {
	pool := trace.NewStudyPool(1)
	links := experiment.GenerateAssignments(pool, 1, 8, 1)[0].LinkFn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.RunConfig{
			Seed: 1, NumServers: 8, Shape: core.CompleteBinaryTree,
			Links: links, Policy: &placement.Global{Period: 10 * time.Minute},
			Workload: workload.Config{ImagesPerServer: 60, MeanBytes: 128 * 1024, SpreadFrac: 0.25},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
