package core

import (
	"testing"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/faults"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// The chaos tests pin crash windows at adversarial moments discovered from a
// fault-free baseline of the identical configuration: mid-transfer, during a
// barrier change-over, during a local relocation. Every scenario must still
// complete with the full image count.

func chaosPolicies() map[string]func() placement.Policy {
	return map[string]func() placement.Policy{
		"download-all": func() placement.Policy { return placement.DownloadAll{} },
		"one-shot":     func() placement.Policy { return placement.OneShot{} },
		"global":       func() placement.Policy { return &placement.Global{Period: 2 * time.Minute} },
		"local":        func() placement.Policy { return &placement.Local{Period: 2 * time.Minute, Seed: 7} },
	}
}

func mustRun(t *testing.T, cfg RunConfig) RunResult {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func wantArrivals(t *testing.T, res RunResult, n int) {
	t.Helper()
	if len(res.Arrivals) != n {
		t.Fatalf("arrivals = %d, want %d", len(res.Arrivals), n)
	}
}

// TestChaosServerCrashMidTransfer crashes a server host while one of its
// transfers is in flight, for every algorithm. The consumer's demand-retry
// must re-fetch once the host recovers.
func TestChaosServerCrashMidTransfer(t *testing.T) {
	const iters = 12
	for name, mk := range chaosPolicies() {
		t.Run(name, func(t *testing.T) {
			base := RunConfig{
				Seed: 11, NumServers: 4, Shape: CompleteBinaryTree,
				Links: constLinks(64 * 1024), Policy: mk(),
				Workload: smallWorkload(iters),
			}
			probe := base
			rec := &telemetry.Recorder{}
			probe.Telemetry = rec
			baseline := mustRun(t, probe)
			wantArrivals(t, baseline, iters)

			// Pick a mid-run transfer sourced at a server host and crash the
			// source just before delivery — the transfer is cut mid-flight.
			clientHost := baseline.InitialPlacement.ClientHost()
			var victim netmodel.HostID = netmodel.HostID(0)
			var at sim.Time
			for _, ev := range rec.Events() {
				from, served := netmodel.HostID(ev.Host), sim.Time(ev.At)
				if ev.Kind == telemetry.KindDataServed && served > baseline.Completion/3 &&
					from != clientHost && int(from) < base.NumServers {
					victim, at = from, served-500*sim.Millisecond
					break
				}
			}
			if at == 0 {
				t.Fatal("baseline produced no mid-run server transfer")
			}

			chaos := base
			chaos.Policy = mk()
			chaos.Faults = faults.Config{Plan: &faults.Plan{Crashes: []faults.CrashWindow{
				{Host: victim, At: at, RecoverAt: at + 60*sim.Second},
			}}}
			res := mustRun(t, chaos)
			wantArrivals(t, res, iters)
			if res.CrashesFired != 1 {
				t.Errorf("crashes fired = %d, want 1", res.CrashesFired)
			}
			if res.Retries == 0 {
				t.Error("no retries despite a server crash mid-transfer")
			}
			t.Logf("%s: victim=s%d at=%v completion %v -> %v retries=%d",
				name, victim, at, baseline.Completion, res.Completion, res.Retries)
		})
	}
}

// funnelLinks: only server 0 has a usable link to the client; every other
// client link crawls and the inter-server mesh is fast. One-shot then funnels
// the whole combination through server 0, so the root operator lands there.
func funnelLinks(n int) LinkFn {
	client := netmodel.HostID(n)
	return func(a, b netmodel.HostID) *trace.Trace {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		switch {
		case hi == client && lo == 0:
			return trace.Constant("fast-funnel", 200*1024)
		case hi == client:
			return trace.Constant("crawl", 2*1024)
		default:
			return trace.Constant("mesh", 200*1024)
		}
	}
}

// TestChaosOperatorHostCrash crashes hosts running operators: an interior
// operator (both children are servers) and the root operator (the
// client-adjacent node). The consumer must re-instantiate the dead operator.
func TestChaosOperatorHostCrash(t *testing.T) {
	const iters = 12
	cases := []struct {
		class string
		links LinkFn
		pick  func(res RunResult) (netmodel.HostID, bool)
	}{
		{"interior-operator", detourLinks(4), func(res RunResult) (netmodel.HostID, bool) {
			pl := res.InitialPlacement
			for _, op := range pl.Tree().Operators() {
				if op == pl.Tree().Root() {
					continue
				}
				if h := pl.Loc(op); h != pl.ClientHost() {
					return h, true
				}
			}
			return 0, false
		}},
		{"root-operator", funnelLinks(4), func(res RunResult) (netmodel.HostID, bool) {
			pl := res.InitialPlacement
			h := pl.Loc(pl.Tree().Root())
			return h, h != pl.ClientHost()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.class, func(t *testing.T) {
			base := RunConfig{
				Seed: 11, NumServers: 4, Shape: CompleteBinaryTree,
				Links: tc.links, Policy: placement.OneShot{},
				Workload: smallWorkload(iters),
			}
			baseline := mustRun(t, base)
			wantArrivals(t, baseline, iters)
			victim, ok := tc.pick(baseline)
			if !ok {
				t.Fatalf("%s: no off-client operator host in baseline placement", tc.class)
			}
			at := baseline.Completion / 2
			chaos := base
			chaos.Faults = faults.Config{Plan: &faults.Plan{Crashes: []faults.CrashWindow{
				{Host: victim, At: at, RecoverAt: at + 90*sim.Second},
			}}}
			res := mustRun(t, chaos)
			wantArrivals(t, res, iters)
			if res.Reinstantiations == 0 {
				t.Errorf("no operator re-instantiation after crashing host %d (class %s)", victim, tc.class)
			}
			t.Logf("%s: host=%d at=%v reinst=%d retries=%d invalidated=%d completion=%v",
				tc.class, victim, at, res.Reinstantiations, res.Retries, res.Invalidated, res.Completion)
		})
	}
}

// TestChaosCrashDuringBarrierSwitch crashes a host that participates in a
// global change-over right as the coordinated switch happens. The barrier
// protocol must heal (re-reports, order re-sends) and the run must finish.
func TestChaosCrashDuringBarrierSwitch(t *testing.T) {
	const iters = 30
	base := RunConfig{
		Seed: 3, NumServers: 2, Shape: CompleteBinaryTree,
		Links:    flipLinks(20 * sim.Second),
		Policy:   &placement.Global{Period: 30 * time.Second},
		Workload: smallWorkload(iters),
	}
	baseline := mustRun(t, base)
	wantArrivals(t, baseline, iters)
	if baseline.Switches == 0 {
		t.Fatal("baseline never switched; cannot aim at a barrier change-over")
	}
	var sw *dataflow.MoveRecord
	for i := range baseline.MoveLog {
		if baseline.MoveLog[i].Barrier {
			sw = &baseline.MoveLog[i]
			break
		}
	}
	if sw == nil {
		t.Fatal("switch counted but no barrier move recorded")
	}
	clientHost := baseline.InitialPlacement.ClientHost()
	cases := map[string]netmodel.HostID{}
	if sw.From != clientHost {
		cases["old-site"] = sw.From
	}
	if sw.To != clientHost && sw.To != sw.From {
		cases["new-site"] = sw.To
	}
	if len(cases) == 0 {
		t.Fatalf("barrier move %v involves only the client host", *sw)
	}
	for side, victim := range cases {
		t.Run(side, func(t *testing.T) {
			// Crash just before the change-over completes so the switch
			// machinery (proposal, reports, switch order) is mid-flight.
			at := sw.At - 100*sim.Millisecond
			chaos := base
			chaos.Policy = &placement.Global{Period: 30 * time.Second}
			chaos.Faults = faults.Config{Plan: &faults.Plan{Crashes: []faults.CrashWindow{
				{Host: victim, At: at, RecoverAt: at + 45*sim.Second},
			}}}
			res := mustRun(t, chaos)
			wantArrivals(t, res, iters)
			if res.CrashesFired != 1 {
				t.Errorf("crashes fired = %d, want 1", res.CrashesFired)
			}
			t.Logf("%s: host=%d at=%v switches=%d retries=%d reinst=%d completion %v -> %v",
				side, victim, at, res.Switches, res.Retries, res.Reinstantiations,
				baseline.Completion, res.Completion)
		})
	}
}

// TestChaosCrashDuringRelocation crashes the destination host right before a
// local-policy relocation lands there. The engine must skip or survive the
// move and still deliver every image.
func TestChaosCrashDuringRelocation(t *testing.T) {
	const iters = 30
	base := RunConfig{
		Seed: 3, NumServers: 2, Shape: CompleteBinaryTree,
		Links:    flipLinks(20 * sim.Second),
		Policy:   &placement.Local{Period: 30 * time.Second},
		Workload: smallWorkload(iters),
	}
	baseline := mustRun(t, base)
	wantArrivals(t, baseline, iters)
	if baseline.Moves == 0 {
		t.Fatal("baseline never moved; cannot aim at a relocation")
	}
	clientHost := baseline.InitialPlacement.ClientHost()
	var victim netmodel.HostID
	var at sim.Time
	for _, mv := range baseline.MoveLog {
		if mv.To != clientHost {
			victim, at = mv.To, mv.At-100*sim.Millisecond
			break
		}
	}
	if at == 0 {
		t.Skip("every relocation targeted the client host")
	}
	chaos := base
	chaos.Policy = &placement.Local{Period: 30 * time.Second}
	chaos.Faults = faults.Config{Plan: &faults.Plan{Crashes: []faults.CrashWindow{
		{Host: victim, At: at, RecoverAt: at + 45*sim.Second},
	}}}
	res := mustRun(t, chaos)
	wantArrivals(t, res, iters)
	t.Logf("relocation chaos: host=%d at=%v moves %d -> %d retries=%d reinst=%d",
		victim, at, baseline.Moves, res.Moves, res.Retries, res.Reinstantiations)
}
