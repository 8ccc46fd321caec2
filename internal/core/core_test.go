package core

import (
	"testing"
	"time"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/sim"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// constLinks gives every link the same constant bandwidth.
func constLinks(bw trace.Bandwidth) LinkFn {
	return func(a, b netmodel.HostID) *trace.Trace { return trace.Constant("l", bw) }
}

// smallWorkload keeps tests fast.
func smallWorkload(n int) workload.Config {
	return workload.Config{ImagesPerServer: n, MeanBytes: 64 * 1024, SpreadFrac: 0.1}
}

func TestRunDownloadAllBasic(t *testing.T) {
	res, err := Run(RunConfig{
		Seed: 1, NumServers: 4, Shape: CompleteBinaryTree,
		Links: constLinks(64 * 1024), Policy: placement.DownloadAll{},
		Workload: smallWorkload(10),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Arrivals) != 10 {
		t.Fatalf("arrivals = %d", len(res.Arrivals))
	}
	if res.Algorithm != "download-all" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	if res.Moves != 0 || res.Switches != 0 {
		t.Errorf("baseline moved: %+v", res)
	}
	if res.PassiveMeasurements == 0 {
		t.Error("no passive measurements despite 64KB transfers")
	}
	if res.NetworkTransfers == 0 || res.BytesMoved == 0 {
		t.Error("no network accounting")
	}
	if !res.InitialPlacement.Equal(res.FinalPlacement) {
		t.Error("placement changed under download-all")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := RunConfig{
		Seed: 42, NumServers: 4, Shape: CompleteBinaryTree,
		Links: constLinks(32 * 1024), Policy: &placement.Local{Period: time.Minute},
		Workload: smallWorkload(8),
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completion != b.Completion || a.Moves != b.Moves {
		t.Errorf("nondeterministic: %v/%d vs %v/%d", a.Completion, a.Moves, b.Completion, b.Moves)
	}
}

// detourLinks: server 0's direct link to the client is terrible, everything
// else is fast — the scenario where relocation wins big.
func detourLinks(n int) LinkFn {
	client := netmodel.HostID(n)
	return func(a, b netmodel.HostID) *trace.Trace {
		if (a == 0 && b == client) || (a == client && b == 0) {
			return trace.Constant("slow", 2*1024)
		}
		return trace.Constant("fast", 200*1024)
	}
}

func TestOneShotBeatsDownloadAll(t *testing.T) {
	base := RunConfig{
		Seed: 7, NumServers: 2, Shape: CompleteBinaryTree,
		Links: detourLinks(2), Workload: smallWorkload(10),
	}
	da := base
	da.Policy = placement.DownloadAll{}
	resDA, err := Run(da)
	if err != nil {
		t.Fatal(err)
	}
	os := base
	os.Policy = placement.OneShot{}
	resOS, err := Run(os)
	if err != nil {
		t.Fatal(err)
	}
	if resOS.Completion >= resDA.Completion {
		t.Errorf("one-shot %v not faster than download-all %v", resOS.Completion, resDA.Completion)
	}
	// The speedup should be substantial (the slow link is 100x slower).
	if float64(resDA.Completion)/float64(resOS.Completion) < 3 {
		t.Errorf("speedup only %.2fx", float64(resDA.Completion)/float64(resOS.Completion))
	}
}

// flipLinks models a persistent bandwidth shift at flipAt: server 0's client
// link starts fast and collapses; server 1's starts slow and recovers. The
// inter-server link is always fast. Before the flip the best operator site
// is server 0; after it, server 1.
func flipLinks(flipAt sim.Time) LinkFn {
	seg := func(first, second trace.Bandwidth) *trace.Trace {
		return trace.New("flip", flipAt, []trace.Bandwidth{first, second})
	}
	return func(a, b netmodel.HostID) *trace.Trace {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		switch {
		case lo == 0 && hi == 2:
			return seg(200*1024, 2*1024) // s0-client: fast then slow
		case lo == 1 && hi == 2:
			return seg(2*1024, 200*1024) // s1-client: slow then fast
		default:
			return trace.Constant("s0s1", 500*1024)
		}
	}
}

func TestGlobalAdaptsToBandwidthFlip(t *testing.T) {
	base := RunConfig{
		Seed: 3, NumServers: 2, Shape: CompleteBinaryTree,
		Links: flipLinks(20 * sim.Second), Workload: smallWorkload(30),
	}
	osCfg := base
	osCfg.Policy = placement.OneShot{}
	resOS, err := Run(osCfg)
	if err != nil {
		t.Fatal(err)
	}
	glCfg := base
	glCfg.Policy = &placement.Global{Period: 30 * time.Second}
	resGL, err := Run(glCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resGL.Switches == 0 {
		t.Error("global never switched despite persistent bandwidth shift")
	}
	if float64(resOS.Completion)/float64(resGL.Completion) < 1.5 {
		t.Errorf("global (%v) should clearly beat one-shot (%v) after the flip",
			resGL.Completion, resOS.Completion)
	}
}

func TestLocalAdaptsToBandwidthFlip(t *testing.T) {
	base := RunConfig{
		Seed: 3, NumServers: 2, Shape: CompleteBinaryTree,
		Links: flipLinks(20 * sim.Second), Workload: smallWorkload(30),
	}
	osCfg := base
	osCfg.Policy = placement.OneShot{}
	resOS, err := Run(osCfg)
	if err != nil {
		t.Fatal(err)
	}
	loCfg := base
	loCfg.Policy = &placement.Local{Period: 30 * time.Second}
	resLO, err := Run(loCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resLO.Moves == 0 {
		t.Error("local never moved despite persistent bandwidth shift")
	}
	if resLO.Completion >= resOS.Completion {
		t.Errorf("local (%v) should beat one-shot (%v) after the flip",
			resLO.Completion, resOS.Completion)
	}
}

func TestRunLeftDeepShape(t *testing.T) {
	res, err := Run(RunConfig{
		Seed: 5, NumServers: 4, Shape: LeftDeepTree,
		Links: constLinks(64 * 1024), Policy: placement.OneShot{},
		Workload: smallWorkload(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrivals) != 6 {
		t.Errorf("arrivals = %d", len(res.Arrivals))
	}
	if CompleteBinaryTree.String() != "complete-binary" || LeftDeepTree.String() != "left-deep" {
		t.Error("shape names wrong")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(RunConfig{NumServers: 1, Links: constLinks(1), Policy: placement.DownloadAll{}}); err == nil {
		t.Error("1 server accepted")
	}
	if _, err := Run(RunConfig{NumServers: 2, Policy: placement.DownloadAll{}}); err == nil {
		t.Error("missing links accepted")
	}
	if _, err := Run(RunConfig{NumServers: 2, Links: constLinks(1)}); err == nil {
		t.Error("missing policy accepted")
	}
	nilAt := func(a, b netmodel.HostID) *trace.Trace { return nil }
	if _, err := Run(RunConfig{NumServers: 2, Links: nilAt, Policy: placement.DownloadAll{}}); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestRunWithOracleMonitoring(t *testing.T) {
	cfg := monitor.DefaultConfig()
	cfg.ProbeMode = monitor.ProbeOracle
	res, err := Run(RunConfig{
		Seed: 9, NumServers: 2, Shape: CompleteBinaryTree,
		Links: detourLinks(2), Policy: placement.OneShot{},
		Workload: smallWorkload(5), Monitor: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Error("oracle probes not counted")
	}
	// With instant probes the first arrival should come quickly.
	if res.Arrivals[0] > 60*sim.Second {
		t.Errorf("first arrival %v suspiciously slow for oracle mode", res.Arrivals[0])
	}
}
