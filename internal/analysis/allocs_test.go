package analysis

import (
	"fmt"
	"strings"
	"testing"

	"wadc/internal/lint"
	"wadc/internal/obs"
)

func verificationFixture() (*obs.AllocReport, []lint.Budget) {
	rep := &obs.AllocReport{
		Ops: 10, ProfileRate: 1,
		TotalAllocs: 1200, SampledAllocs: 1200,
		Sites: []obs.AllocSite{
			{Func: "wadc/internal/dataflow.(*node).compose", File: "internal/dataflow/node.go",
				Line: 150, Subsystem: "dataflow", Allocs: 600, Bytes: 60000},
			{Func: "wadc/internal/sim.(*Kernel).schedule", File: "internal/sim/kernel.go",
				Line: 210, Subsystem: "sim", Allocs: 300, Bytes: 9000},
			{Func: "wadc/internal/sim.(*Kernel).schedule", File: "internal/sim/kernel.go",
				Line: 214, Subsystem: "sim", Allocs: 150, Bytes: 4000},
			{Func: "wadc/internal/core.buildNetwork", File: "internal/core/core.go",
				Line: 80, Subsystem: "other", Allocs: 90, Bytes: 5000},
			{Func: "wadc/internal/obs.helper", File: "internal/obs/obs_test.go",
				Line: 5, Subsystem: "other", Allocs: 40, Bytes: 100},
			{Func: "testing.(*B).ReportAllocs", File: "testing/benchmark.go",
				Line: 1, Subsystem: "other", Allocs: 20, Bytes: 100},
		},
	}
	budgets := []lint.Budget{
		{Func: "wadc/internal/sim.(*Kernel).schedule", File: "internal/sim/kernel.go",
			Line: 205, Budget: 4, Reason: "heap buffers"},
		{Func: "wadc/internal/dataflow.(*node).compose", File: "internal/dataflow/node.go",
			Line: 148, Budget: 1, Reason: "one compose buffer"},
		{Func: "wadc/internal/netmodel.(*Network).Send", File: "internal/netmodel/netmodel.go",
			Line: 289, Budget: 3, Reason: "panic formatting"},
	}
	return rep, budgets
}

func TestVerifyBudgets(t *testing.T) {
	rep, budgets := verificationFixture()
	v := VerifyBudgets(rep, budgets)

	if len(v.Verdicts) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(v.Verdicts))
	}
	byFunc := make(map[string]BudgetVerdict)
	for _, verdict := range v.Verdicts {
		byFunc[verdict.Budget.Func] = verdict
	}

	sched := byFunc["wadc/internal/sim.(*Kernel).schedule"]
	if sched.Status != "confirmed" || sched.Sites != 2 || sched.Allocs != 450 || !sched.Exercised {
		t.Errorf("schedule verdict = %+v, want confirmed/2 sites/450 allocs/exercised", sched)
	}
	compose := byFunc["wadc/internal/dataflow.(*node).compose"]
	if compose.Status != "confirmed" || compose.Sites != 1 || compose.Allocs != 600 {
		t.Errorf("compose verdict = %+v, want confirmed/1 site/600 allocs", compose)
	}
	netSend := byFunc["wadc/internal/netmodel.(*Network).Send"]
	if netSend.Status != "confirmed" || netSend.Exercised || netSend.Sites != 0 {
		t.Errorf("unexercised cold-path budget verdict = %+v, want confirmed/0 sites", netSend)
	}
	if v.OverBudget != 0 || !v.Confirmed() {
		t.Errorf("OverBudget = %d, Confirmed = %v, want 0/true", v.OverBudget, v.Confirmed())
	}

	// Candidates: budgeted, non-module, and test-file sites are all excluded.
	if len(v.Candidates) != 1 {
		t.Fatalf("got %d candidates, want 1: %+v", len(v.Candidates), v.Candidates)
	}
	if v.Candidates[0].Func != "wadc/internal/core.buildNetwork" {
		t.Errorf("candidate = %+v, want core.buildNetwork", v.Candidates[0])
	}
}

func TestVerifyBudgetsOverBudget(t *testing.T) {
	rep, budgets := verificationFixture()
	budgets[0].Budget = 1 // schedule observed 2 distinct lines
	v := VerifyBudgets(rep, budgets)
	if v.OverBudget != 1 || v.Confirmed() {
		t.Fatalf("OverBudget = %d, Confirmed = %v, want 1/false", v.OverBudget, v.Confirmed())
	}
	for _, verdict := range v.Verdicts {
		if verdict.Budget.Func == budgets[0].Func && verdict.Status != "over-budget" {
			t.Errorf("verdict = %+v, want over-budget", verdict)
		}
	}
}

func TestVerifyBudgetsCandidateCap(t *testing.T) {
	// Twelve unbudgeted module sites, hottest first as the report ranks
	// them: the list keeps the ten hottest, in order.
	rep := &obs.AllocReport{Ops: 1, ProfileRate: 1}
	for i := 0; i < 12; i++ {
		rep.Sites = append(rep.Sites, obs.AllocSite{
			Func: fmt.Sprintf("wadc/internal/core.site%d", i), File: "internal/core/core.go",
			Line: 10 + i, Subsystem: "other", Allocs: int64(1200 - 100*i), Bytes: 100,
		})
	}
	v := VerifyBudgets(rep, nil)
	if len(v.Candidates) != 10 {
		t.Fatalf("got %d candidates from 12 sites, want 10", len(v.Candidates))
	}
	for i, c := range v.Candidates {
		if c.Allocs != int64(1200-100*i) {
			t.Errorf("candidate %d Allocs = %d, want %d", i, c.Allocs, 1200-100*i)
		}
	}
}

func TestWriteAllocVerification(t *testing.T) {
	rep, budgets := verificationFixture()
	v := VerifyBudgets(rep, budgets)
	var b strings.Builder
	WriteAllocVerification(&b, v, rep)
	out := b.String()
	for _, want := range []string{
		"3 declared budget(s), 0 over budget",
		"[confirmed  ] wadc/internal/sim.(*Kernel).schedule: 2 site(s) observed, budget 4, 45.0 allocs/op",
		"not exercised: cold-path budget",
		"pooling candidates",
		"1. wadc/internal/core.buildNetwork (internal/core/core.go:80) — 90 allocs, 5000 bytes  (9.0 allocs/op)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
