package core

import (
	"testing"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/trace"
)

func TestRunGreedyBandwidthShape(t *testing.T) {
	// Servers 0,1 share a fast link; 2,3 share a fast link; everything else
	// is slow. The greedy order must pair them accordingly, and the run
	// completes normally.
	fast := trace.Constant("fast", 400*1024)
	slow := trace.Constant("slow", 20*1024)
	links := func(a, b netmodel.HostID) *trace.Trace {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if (lo == 0 && hi == 1) || (lo == 2 && hi == 3) {
			return fast
		}
		return slow
	}
	res, err := Run(RunConfig{
		Seed: 4, NumServers: 4, Shape: GreedyBandwidthTree,
		Links: links, Policy: placement.OneShot{},
		Workload: smallWorkload(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrivals) != 8 {
		t.Fatalf("arrivals = %d", len(res.Arrivals))
	}
	if GreedyBandwidthTree.String() != "greedy-bandwidth" {
		t.Errorf("name = %q", GreedyBandwidthTree.String())
	}
}

func TestGreedyOrderBeatsLeftDeepOnClusteredNetwork(t *testing.T) {
	// With two tight clusters far from the client, the greedy order (which
	// combines within clusters first) should beat the left-deep order under
	// the same policy.
	fast := trace.Constant("fast", 500*1024)
	slow := trace.Constant("slow", 16*1024)
	links := func(a, b netmodel.HostID) *trace.Trace {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if (lo == 0 && hi == 1) || (lo == 2 && hi == 3) {
			return fast
		}
		return slow
	}
	run := func(shape TreeShape) float64 {
		res, err := Run(RunConfig{
			Seed: 4, NumServers: 4, Shape: shape,
			Links: links, Policy: placement.OneShot{}, Workload: smallWorkload(10),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Completion.Seconds()
	}
	greedy := run(GreedyBandwidthTree)
	leftDeep := run(LeftDeepTree)
	// Good placement can largely compensate for a poor order, so the gap
	// may be small — but the bandwidth-aware order must never lose
	// meaningfully to the bandwidth-blind one on this clustered network.
	if greedy > leftDeep*1.1 {
		t.Errorf("greedy order (%.1fs) lost badly to left-deep (%.1fs) on clustered network",
			greedy, leftDeep)
	}
}

func TestLocalUnstaggeredStillAdapts(t *testing.T) {
	base := RunConfig{
		Seed: 3, NumServers: 2, Shape: CompleteBinaryTree,
		Links: flipLinks(20 * 1000000000), Workload: smallWorkload(30),
	}
	cfg := base
	cfg.Policy = &placement.Local{Period: 30 * time.Second, Unstagger: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Error("unstaggered local never moved")
	}
	if len(res.Arrivals) != 30 {
		t.Errorf("arrivals = %d", len(res.Arrivals))
	}
}

func TestFlatPrioritiesRunCompletes(t *testing.T) {
	res, err := Run(RunConfig{
		Seed: 5, NumServers: 4, Shape: CompleteBinaryTree,
		Links: constLinks(48 * 1024), Policy: &placement.Global{Period: time.Minute},
		Workload: smallWorkload(20), FlatPriorities: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrivals) != 20 {
		t.Errorf("arrivals = %d", len(res.Arrivals))
	}
}
