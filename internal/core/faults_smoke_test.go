package core

import (
	"testing"
	"time"

	"wadc/internal/faults"
	"wadc/internal/placement"
)

// TestFaultsSmoke: generated fault plans (crashes + drops + dups + outages)
// against every algorithm; the run must complete with the right image count.
func TestFaultsSmoke(t *testing.T) {
	policies := map[string]func() placement.Policy{
		"download-all": func() placement.Policy { return placement.DownloadAll{} },
		"one-shot":     func() placement.Policy { return placement.OneShot{} },
		"global":       func() placement.Policy { return &placement.Global{Period: 2 * time.Minute} },
		"local":        func() placement.Policy { return &placement.Local{Period: 2 * time.Minute, Seed: 7} },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			res, err := Run(RunConfig{
				Seed: 11, NumServers: 4, Shape: CompleteBinaryTree,
				Links: constLinks(64 * 1024), Policy: mk(),
				Workload: smallWorkload(12),
				Faults: faults.Config{
					Crashes:      2,
					MeanDowntime: 90 * time.Second,
					DropProb:     0.05,
					DupProb:      0.02,
					LinkOutages:  2,
					Horizon:      20 * time.Minute,
				},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(res.Arrivals) != 12 {
				t.Fatalf("arrivals = %d, want 12", len(res.Arrivals))
			}
			t.Logf("%s: completion=%v crashes=%d dropped=%d dup=%d cut=%d retries=%d reinst=%d",
				name, res.Completion, res.CrashesFired, res.MessagesDropped,
				res.MessagesDuplicated, res.TransfersCut, res.Retries, res.Reinstantiations)
		})
	}
}
