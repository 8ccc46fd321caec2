package wadc_test

import (
	"testing"
	"time"

	"wadc/internal/analysis"
	"wadc/internal/core"
	"wadc/internal/experiment"
	"wadc/internal/lint"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// TestAllocObservabilityAcceptance is the end-to-end contract for the memory
// observability layer: one real simulation run captured at profile rate 1,
// joined against the //lint:allocbudget annotations collected from this
// repository's source. The join must (a) attribute at least 95% of the
// run's allocations to named sites with subsystem labels, (b) empirically
// confirm every declared budget — a single over-budget verdict means either
// an allocation regression or a stale annotation, both of which belong in
// the failing change — and (c) surface at least 5 unbudgeted hot sites as
// pooling candidates, so the table always points at the next optimization.
func TestAllocObservabilityAcceptance(t *testing.T) {
	pool := trace.NewStudyPool(1)
	assignment := experiment.GenerateAssignments(pool, 1, 8, 1)[0]
	capture := obs.StartAllocCapture()
	res, err := core.Run(core.RunConfig{
		Seed: 1, NumServers: 8, Shape: core.CompleteBinaryTree,
		Links:  assignment.LinkFn(),
		Policy: &placement.Global{Period: 5 * time.Minute},
		Workload: workload.Config{
			ImagesPerServer: 20, MeanBytes: 128 * 1024, SpreadFrac: 0.25,
		},
	})
	rep := capture.Finish(int64(len(res.Arrivals)))
	if err != nil {
		t.Fatal(err)
	}
	if cov := rep.Coverage(); cov < 0.95 {
		t.Errorf("coverage = %.3f, want >= 0.95 of allocations attributed", cov)
	}
	for _, site := range rep.Sites {
		if site.Subsystem == "" {
			t.Errorf("site %s (%s:%d) has no subsystem label", site.Func, site.File, site.Line)
		}
	}

	budgets, err := lint.CollectBudgets(".")
	if err != nil {
		t.Fatalf("collecting budgets: %v", err)
	}
	if len(budgets) == 0 {
		t.Fatal("no //lint:allocbudget annotations found in the repository")
	}
	v := analysis.VerifyBudgets(rep, budgets)
	if !v.Confirmed() {
		for _, verdict := range v.Verdicts {
			if verdict.Status != "confirmed" {
				t.Errorf("budget not confirmed: %s observed %d site(s), budget %d (%s)",
					verdict.Budget.Func, verdict.Sites, verdict.Budget.Budget, verdict.Budget.Reason)
			}
		}
	}
	if len(v.Candidates) < 5 {
		t.Errorf("got %d pooling candidates, want >= 5: %+v", len(v.Candidates), v.Candidates)
	}
}
