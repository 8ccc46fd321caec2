// Command simscope inspects structured event logs written by -events-out
// (cmd/combine, cmd/experiments) and answers four questions about a run:
//
//	simscope timeline run.jsonl
//	    What happened when? Initial placement, every placement decision
//	    (critical path, predicted cost, candidates, chosen moves), every
//	    committed relocation, and the completion summary.
//
//	simscope decisions [-v] run.jsonl [run2.jsonl ...]
//	    How good were the decisions? Per-algorithm audit table joining each
//	    decision's predictions with realized outcomes: iteration-time
//	    deltas, relocation cost paid, prediction error, reverted moves.
//	    Several logs (e.g. a global and a local run of the same
//	    configuration) are reported side by side. -v adds one audit line
//	    per decision.
//
//	simscope critpath [-v] [-csv out.csv] [-tenant id] run.jsonl
//	    What actually gated each iteration? Walks the causal edges backward
//	    from every image arrival and attributes the client-observed latency
//	    to NIC queueing, transfer startup, payload time, compute and
//	    idle-demand waits per link and host, then joins the realized paths
//	    against the optimiser's decision records (predicted vs realized).
//	    On a multi-tenant log a per-tenant table (p50/p95 latency,
//	    attribution shares) follows the summary; -tenant restricts the
//	    whole analysis to one tenant's sub-log. -v adds one attribution
//	    line per iteration; -csv exports the per-iteration breakdown.
//
//	simscope estimator [-csv out.csv] [-tenant id] run.jsonl
//	    How good were the bandwidth estimates the decisions ran on? Joins
//	    every consumed estimate against the ground truth the network
//	    delivered over its validity window (logged by `combine -estimates`):
//	    per-link signed error, staleness-vs-error correlation, provenance
//	    mix, regime-change detection lag, per-algorithm consumption
//	    profiles, and the miss-attribution of large errors to reverted and
//	    off-path decisions. -csv exports the per-link accuracy table;
//	    -tenant restricts the analysis to one tenant's sub-log.
//
//	simscope diff a.jsonl b.jsonl
//	    Are two runs the same run? Two same-seed, same-config logs must be
//	    event-for-event identical (the determinism contract); the diff
//	    reports zero divergence then, or pinpoints the first differing
//	    event, the first diverging iteration and per-kind count deltas.
//
//	simscope perf [-csv out.csv] perf.json
//	    Where did the host process spend its time? Renders a performance
//	    report written by `combine -perf-out`: per-subsystem wall-time
//	    shares, events/sec, transfers and MB/s, allocations and peak heap,
//	    GC cycles and pause quantiles. -csv exports the same report as CSV.
//
//	simscope allocs [-csv out.csv] [-top N] [-src dir] allocs.json
//	    Where does the run allocate? Renders an alloc-site report written
//	    by `combine -allocs-out` (or the bench capture): the ranked hot-site
//	    table with subsystem attribution, per-op rates, coverage and GC
//	    stats — then joins the sites against the //lint:allocbudget
//	    declarations in the source tree (-src, default: the enclosing
//	    module), confirming each budget empirically and listing the hottest
//	    unbudgeted sites as pooling candidates. -csv exports the site table.
//
// Exit codes: 0 success, 1 runtime error (unreadable or malformed log),
// 2 usage error, 3 diff divergence.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wadc/internal/analysis"
	"wadc/internal/lint"
	"wadc/internal/obs"
	"wadc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks argument mistakes (wrong count, bad flag, unknown
// subcommand) that should exit 2 with the usage text, as opposed to runtime
// failures that exit 1.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is the testable entry point: it executes one subcommand against the
// given writers and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "timeline":
		err = cmdTimeline(args[1:], stdout)
	case "decisions":
		err = cmdDecisions(args[1:], stdout)
	case "critpath":
		err = cmdCritPath(args[1:], stdout)
	case "estimator":
		err = cmdEstimator(args[1:], stdout)
	case "diff":
		identical, derr := cmdDiff(args[1:], stdout)
		if derr == nil && !identical {
			return 3 // scriptable: diff exits non-zero on divergence
		}
		err = derr
	case "perf":
		err = cmdPerf(args[1:], stdout)
	case "allocs":
		err = cmdAllocs(args[1:], stdout)
	default:
		fmt.Fprintf(stderr, "simscope: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	var uerr usageError
	if errors.As(err, &uerr) {
		fmt.Fprintf(stderr, "simscope: %v\n\n", err)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "simscope: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage:
  simscope timeline <run.jsonl>
  simscope decisions [-v] <run.jsonl> [more.jsonl ...]
  simscope critpath [-v] [-csv out.csv] [-tenant id] <run.jsonl>
  simscope estimator [-csv out.csv] [-tenant id] <run.jsonl>
  simscope diff <a.jsonl> <b.jsonl>
  simscope perf [-csv out.csv] <perf.json>
  simscope allocs [-csv out.csv] [-top N] [-src dir] <allocs.json>
`)
}

func load(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

func cmdTimeline(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return usageError(fmt.Sprintf("timeline wants exactly one log, got %d", len(args)))
	}
	events, err := load(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "== %s ==\n", filepath.Base(args[0]))
	fmt.Fprint(stdout, analysis.FormatTimeline(events))
	return nil
}

func cmdDecisions(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("decisions", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	verbose := fs.Bool("v", false, "print one audit line per decision")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() < 1 {
		return usageError("decisions wants at least one log")
	}
	for _, path := range fs.Args() {
		events, err := load(path)
		if err != nil {
			return err
		}
		outcomes := analysis.Attribute(analysis.ExtractDecisions(events), events)
		fmt.Fprintf(stdout, "== %s ==\n", filepath.Base(path))
		if len(outcomes) == 0 {
			fmt.Fprintln(stdout, "no placement-decision records in log")
			continue
		}
		fmt.Fprint(stdout, analysis.FormatDecisionReports(analysis.BuildReports(outcomes)))
		if *verbose {
			fmt.Fprint(stdout, analysis.FormatDecisionTable(outcomes))
		}
	}
	return nil
}

func cmdCritPath(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("critpath", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	verbose := fs.Bool("v", false, "print one attribution line per iteration")
	csvPath := fs.String("csv", "", "write the per-iteration attribution CSV to this path")
	tenantID := fs.Int("tenant", -1, "restrict the analysis to one tenant's sub-log (multi-tenant logs)")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() != 1 {
		return usageError(fmt.Sprintf("critpath wants exactly one log, got %d", fs.NArg()))
	}
	events, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *tenantID >= 0 {
		events = analysis.FilterTenant(events, int32(*tenantID))
	}
	paths := analysis.ExtractCritPaths(events)
	fmt.Fprintf(stdout, "== %s ==\n", filepath.Base(fs.Arg(0)))
	if *tenantID >= 0 {
		fmt.Fprintf(stdout, "tenant %d sub-log (%d events)\n", *tenantID, len(events))
	}
	if len(paths) == 0 {
		fmt.Fprintln(stdout, "no image-arrived events in log")
		return nil
	}
	fmt.Fprint(stdout, analysis.FormatCritPathSummary(paths))
	// A multi-tenant log gets the per-tenant aggregation; on a single-tenant
	// log (or a -tenant sub-log) the table would repeat the summary.
	if *tenantID < 0 {
		if sums := analysis.SummarizeTenantCritPaths(events); len(sums) > 1 {
			fmt.Fprint(stdout, analysis.FormatTenantCritPathTable(sums))
		}
	}
	if *verbose {
		fmt.Fprint(stdout, analysis.FormatCritPathTable(paths))
	}
	outcomes := analysis.Attribute(analysis.ExtractDecisions(events), events)
	if len(outcomes) > 0 {
		fmt.Fprint(stdout, analysis.FormatPathComparisons(analysis.ComparePredictions(outcomes, paths, events)))
	}
	return writeCSV(*csvPath, func(w io.Writer) error { return analysis.WriteCritPathCSV(w, paths) })
}

func cmdEstimator(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("estimator", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	csvPath := fs.String("csv", "", "write the per-link accuracy table as CSV to this path")
	tenantID := fs.Int("tenant", -1, "restrict the analysis to one tenant's sub-log (multi-tenant logs)")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() != 1 {
		return usageError(fmt.Sprintf("estimator wants exactly one log, got %d", fs.NArg()))
	}
	events, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *tenantID >= 0 {
		events = analysis.FilterTenant(events, int32(*tenantID))
	}
	fmt.Fprintf(stdout, "== %s ==\n", filepath.Base(fs.Arg(0)))
	if *tenantID >= 0 {
		fmt.Fprintf(stdout, "tenant %d sub-log (%d events)\n", *tenantID, len(events))
	}
	rep := analysis.BuildEstimatorReport(events)
	if rep.Uses == 0 {
		fmt.Fprintln(stdout, "no estimate-used events in log (run combine with -estimates)")
		return nil
	}
	fmt.Fprint(stdout, analysis.FormatEstimatorReport(rep))
	return writeCSV(*csvPath, func(w io.Writer) error { return analysis.WriteEstimatorCSV(w, rep) })
}

func cmdPerf(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	csvPath := fs.String("csv", "", "write the report as CSV to this path")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() != 1 {
		return usageError(fmt.Sprintf("perf wants exactly one report, got %d", fs.NArg()))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, rerr := obs.ReadReport(f)
	f.Close()
	if rerr != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), rerr)
	}
	fmt.Fprintf(stdout, "== %s ==\n", filepath.Base(fs.Arg(0)))
	fmt.Fprint(stdout, rep.Format())
	return writeCSV(*csvPath, rep.WriteCSV)
}

func cmdAllocs(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("allocs", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	csvPath := fs.String("csv", "", "write the ranked site table as CSV to this path")
	top := fs.Int("top", 20, "number of sites to print")
	src := fs.String("src", "", "module root holding the //lint:allocbudget annotations (default: the module enclosing the working directory)")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() != 1 {
		return usageError(fmt.Sprintf("allocs wants exactly one report, got %d", fs.NArg()))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, rerr := obs.ReadAllocReport(f)
	f.Close()
	if rerr != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), rerr)
	}
	fmt.Fprintf(stdout, "== %s ==\n", filepath.Base(fs.Arg(0)))
	fmt.Fprint(stdout, rep.Format(*top))

	// The budget join needs the annotated source; without it the site table
	// above still stands on its own.
	root := *src
	if root == "" {
		root = lint.FindModuleRoot()
	}
	if root == "" {
		fmt.Fprintln(stdout, "budget verification skipped: no go.mod found (point -src at the module root)")
	} else {
		budgets, err := lint.CollectBudgets(root)
		if err != nil {
			return fmt.Errorf("collecting budgets under %s: %w", root, err)
		}
		v := analysis.VerifyBudgets(rep, budgets)
		analysis.WriteAllocVerification(stdout, v, rep)
	}
	return writeCSV(*csvPath, rep.WriteCSV)
}

// writeCSV creates path and writes it through write, reporting a failed
// create, write or close; an empty path (no -csv flag) writes nothing.
func writeCSV(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdDiff(args []string, stdout io.Writer) (bool, error) {
	if len(args) != 2 {
		return false, usageError(fmt.Sprintf("diff wants exactly two logs, got %d", len(args)))
	}
	a, err := load(args[0])
	if err != nil {
		return false, err
	}
	b, err := load(args[1])
	if err != nil {
		return false, err
	}
	res := analysis.DiffLogs(a, b)
	fmt.Fprint(stdout, res.String())
	return res.Identical, nil
}
