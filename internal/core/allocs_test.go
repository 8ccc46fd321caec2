package core

import (
	"testing"
	"time"

	"wadc/internal/obs"
	"wadc/internal/placement"
)

// TestAllocsRunReport checks the profile of a single-tenant run captured
// around the call: coverage, subsystem attribution, per-op denominator, GC
// stats.
func TestAllocsRunReport(t *testing.T) {
	const iters = 6
	capture := obs.StartAllocCapture()
	res := mustRun(t, RunConfig{
		Seed: 5, NumServers: 4, Shape: CompleteBinaryTree,
		Links:    constLinks(64 * 1024),
		Policy:   &placement.Global{Period: 2 * time.Minute},
		Workload: smallWorkload(iters),
	})
	rep := capture.Finish(int64(len(res.Arrivals)))
	if rep.Ops != iters {
		t.Errorf("Ops = %d, want %d delivered iterations", rep.Ops, iters)
	}
	if rep.TotalAllocs <= 0 || len(rep.Sites) == 0 {
		t.Fatalf("empty profile: %d total allocs, %d sites", rep.TotalAllocs, len(rep.Sites))
	}
	if cov := rep.Coverage(); cov < 0.9 {
		t.Errorf("coverage = %.3f, want >= 0.9 at profile rate 1", cov)
	}
	bySub := make(map[string]int64)
	for _, sub := range rep.Subsystems {
		bySub[sub.Name] = sub.Allocs
	}
	for _, name := range []string{"sim", "netmodel", "dataflow"} {
		if bySub[name] <= 0 {
			t.Errorf("subsystem %s attributed no allocations: %+v", name, rep.Subsystems)
		}
	}
	if rep.GC == nil {
		t.Error("GC is nil, want the window's GC stats")
	}
}
