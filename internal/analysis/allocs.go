package analysis

import (
	"fmt"
	"io"
	"strings"

	"wadc/internal/lint"
	"wadc/internal/obs"
)

// This file is the runtime half of the allocation contract. The static half
// lives in internal/lint: //lint:allocbudget annotations whose arithmetic
// the allocbudget analyzer checks against the compiler's escape analysis.
// VerifyBudgets joins those declarations against an alloc-site profile
// captured by internal/obs, so every budget is also confirmed empirically —
// and every hot site *without* a budget surfaces as a pooling candidate for
// the ROADMAP's raw-speed arc.

// moduleFuncPrefix marks runtime symbols that belong to this codebase;
// only those are actionable pooling candidates.
const moduleFuncPrefix = "wadc/"

// BudgetVerdict is one //lint:allocbudget declaration joined against the
// runtime profile.
type BudgetVerdict struct {
	// Budget is the static declaration being verified.
	Budget lint.Budget `json:"budget"`
	// Exercised reports whether the profiled run allocated in the function
	// at all. A clean unexercised verdict usually means the budget covers a
	// cold path (panic formatting, error construction) the run never took.
	Exercised bool `json:"exercised"`
	// Sites is the number of distinct source lines that allocated inside
	// the function; Allocs/Bytes are their totals over the window.
	Sites  int   `json:"sites"`
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"bytes"`
	// Status is "confirmed" when the observed distinct sites fit the
	// declared budget, "over-budget" otherwise. The static budget bounds
	// compiler-proven escape sites, so runtime sites exceeding it mean the
	// annotation and the binary have drifted apart.
	Status string `json:"status"`
}

// AllocVerification is the full join: one verdict per declared budget plus
// the ranked unbudgeted hot sites.
type AllocVerification struct {
	Verdicts []BudgetVerdict `json:"verdicts"`
	// Candidates are the ten hottest module allocation sites in functions
	// that carry no //lint:allocbudget annotation — the ordered work list
	// for pooling/reuse, excluding test files.
	Candidates []obs.AllocSite `json:"candidates"`
	// OverBudget counts verdicts whose status is "over-budget".
	OverBudget int `json:"over_budget"`
}

// Confirmed reports whether every declared budget held.
func (v *AllocVerification) Confirmed() bool { return v.OverBudget == 0 }

// maxCandidates bounds the ranked list of unbudgeted hot sites.
const maxCandidates = 10

// VerifyBudgets joins an alloc-site report against the declared budgets.
func VerifyBudgets(rep *obs.AllocReport, budgets []lint.Budget) *AllocVerification {
	budgeted := make(map[string]bool, len(budgets))
	for _, b := range budgets {
		budgeted[b.Func] = true
	}

	v := &AllocVerification{}
	for _, b := range budgets {
		verdict := BudgetVerdict{Budget: b, Status: "confirmed"}
		lines := make(map[int]bool)
		for _, s := range rep.Sites {
			if s.Func != b.Func {
				continue
			}
			lines[s.Line] = true
			verdict.Allocs += s.Allocs
			verdict.Bytes += s.Bytes
		}
		verdict.Sites = len(lines)
		verdict.Exercised = verdict.Allocs > 0
		if verdict.Sites > b.Budget {
			verdict.Status = "over-budget"
			v.OverBudget++
		}
		v.Verdicts = append(v.Verdicts, verdict)
	}
	for _, s := range rep.Sites {
		if len(v.Candidates) >= maxCandidates {
			break
		}
		if budgeted[s.Func] || !strings.HasPrefix(s.Func, moduleFuncPrefix) ||
			strings.HasSuffix(s.File, "_test.go") {
			continue
		}
		v.Candidates = append(v.Candidates, s)
	}
	return v
}

// WriteAllocVerification renders the join as the human-readable block
// printed by `simscope allocs` and `combine -allocs`.
func WriteAllocVerification(w io.Writer, v *AllocVerification, rep *obs.AllocReport) {
	fmt.Fprintf(w, "budget verification: %d declared budget(s), %d over budget\n",
		len(v.Verdicts), v.OverBudget)
	for _, verdict := range v.Verdicts {
		extra := ""
		if !verdict.Exercised {
			extra = "  (not exercised: cold-path budget)"
		}
		perOp := ""
		if rep != nil && rep.Ops > 0 && verdict.Allocs > 0 {
			perOp = fmt.Sprintf(", %.1f allocs/op", float64(verdict.Allocs)/float64(rep.Ops))
		}
		fmt.Fprintf(w, "  [%-11s] %s: %d site(s) observed, budget %d%s%s\n",
			verdict.Status, verdict.Budget.Func, verdict.Sites,
			verdict.Budget.Budget, perOp, extra)
	}
	if len(v.Candidates) == 0 {
		fmt.Fprintf(w, "no unbudgeted module hot sites — nothing new to pool\n")
		return
	}
	fmt.Fprintf(w, "top unbudgeted hot sites (pooling candidates):\n")
	for i, s := range v.Candidates {
		perOp := ""
		if rep != nil && rep.Ops > 0 {
			perOp = fmt.Sprintf("  (%.1f allocs/op)", float64(s.Allocs)/float64(rep.Ops))
		}
		fmt.Fprintf(w, "  %2d. %s (%s:%d) — %d allocs, %d bytes%s\n",
			i+1, s.Func, s.File, s.Line, s.Allocs, s.Bytes, perOp)
	}
}
