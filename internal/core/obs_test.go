package core

import (
	"testing"
	"time"

	"wadc/internal/obs"
	"wadc/internal/placement"
)

// TestObsRunReport checks the report attached to a single-tenant run: shares
// must sum to ~100% of the measured wall time, throughput counters must be
// live, and the work meter must equal the delivered iterations.
func TestObsRunReport(t *testing.T) {
	const iters = 6
	rec := obs.NewRecorder()
	res := mustRun(t, RunConfig{
		Seed: 5, NumServers: 4, Shape: CompleteBinaryTree,
		Links:    constLinks(64 * 1024),
		Policy:   &placement.Global{Period: 2 * time.Minute},
		Workload: smallWorkload(iters),
		Observe:  Observe{Perf: rec},
	})
	rep := res.Perf
	if rep == nil {
		t.Fatal("Observe.Perf set but RunResult.Perf is nil")
	}
	if sum := rep.ShareSum(); sum < 0.95 || sum > 1.001 {
		t.Errorf("subsystem shares sum to %.3f, want ~1.0", sum)
	}
	if rep.Events <= 0 || rep.EventsPerSec <= 0 {
		t.Errorf("events=%d events/s=%.0f, want > 0", rep.Events, rep.EventsPerSec)
	}
	if res.KernelEvents < rep.Events {
		t.Errorf("KernelEvents=%d < dispatched events %d", res.KernelEvents, rep.Events)
	}
	if rep.Transfers <= 0 || rep.BytesMoved <= 0 {
		t.Errorf("transfers=%d bytes=%d, want > 0", rep.Transfers, rep.BytesMoved)
	}
	if rep.WorkTotal != iters || rep.WorkDone != iters {
		t.Errorf("work meter %d/%d, want %d/%d", rep.WorkDone, rep.WorkTotal, iters, iters)
	}
	if rep.VirtualNs <= 0 {
		t.Errorf("VirtualNs=%d, want > 0", rep.VirtualNs)
	}
	// The run's real work happens in the engine and the network; their
	// regions must have accrued something.
	byName := make(map[string]int64)
	for _, s := range rep.Subsystems {
		byName[s.Name] = s.WallNs
	}
	for _, name := range []string{"sim", "dataflow"} {
		if byName[name] <= 0 {
			t.Errorf("subsystem %s accrued no wall time", name)
		}
	}
}
