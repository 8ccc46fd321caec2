package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wadc/internal/core"
	"wadc/internal/metrics"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/trace"
)

// quickOpts keeps sweeps small enough for unit tests.
func quickOpts() Options {
	return Options{
		Configs:    3,
		Servers:    4,
		Iterations: 20,
		Seed:       1,
		Period:     2 * time.Minute,
	}
}

func TestGenerateAssignmentsStable(t *testing.T) {
	pool := trace.NewStudyPool(1)
	a := GenerateAssignments(pool, 5, 4, 7)
	b := GenerateAssignments(pool, 10, 4, 7)
	if len(a) != 5 || len(b) != 10 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	// Config i must be identical regardless of how many configs were asked
	// for (comparability of partial sweeps).
	for i := range a {
		for x := 0; x < 5; x++ {
			for y := x + 1; y < 5; y++ {
				if a[i].Trace(netHost(x), netHost(y)).Name() != b[i].Trace(netHost(x), netHost(y)).Name() {
					t.Fatalf("config %d link %d-%d differs", i, x, y)
				}
			}
		}
	}
	// Different configs must differ somewhere.
	same := true
	for x := 0; x < 5 && same; x++ {
		for y := x + 1; y < 5; y++ {
			if a[0].Trace(netHost(x), netHost(y)).Name() != a[1].Trace(netHost(x), netHost(y)).Name() {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("configs 0 and 1 identical")
	}
}

func TestAssignmentLinkFnSymmetric(t *testing.T) {
	pool := trace.NewStudyPool(1)
	a := GenerateAssignments(pool, 1, 2, 3)[0]
	fn := a.LinkFn()
	if fn(0, 2) != fn(2, 0) {
		t.Error("LinkFn not symmetric")
	}
	defer func() {
		if recover() == nil {
			t.Error("missing link did not panic")
		}
	}()
	fn(0, 9)
}

func TestRunSweepShapes(t *testing.T) {
	sweep, err := RunSweep(quickOpts(), core.CompleteBinaryTree, StandardAlgorithms())
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(sweep.Cells) != 4 {
		t.Fatalf("algorithms = %d", len(sweep.Cells))
	}
	for alg, cells := range sweep.Cells {
		if len(cells) != 3 {
			t.Errorf("%s has %d cells", alg, len(cells))
		}
		for i, c := range cells {
			if c.Config != i {
				t.Errorf("%s cell %d has config %d (misaligned)", alg, i, c.Config)
			}
			if c.CompletionSec <= 0 || c.MeanInterarrival <= 0 {
				t.Errorf("%s config %d: bad timings %+v", alg, i, c)
			}
		}
	}
	// Relocation algorithms must beat download-all on average over these
	// heterogeneous configurations.
	base := sweep.Completions("download-all")
	for _, alg := range []string{"one-shot", "global", "local"} {
		sp := metrics.Speedups(base, sweep.Completions(alg))
		if metrics.Mean(sp) <= 1.0 {
			t.Errorf("%s mean speedup %.2f <= 1", alg, metrics.Mean(sp))
		}
	}
	if sweep.MeanInterarrival("download-all") <= sweep.MeanInterarrival("global") {
		t.Error("global did not reduce mean interarrival vs download-all")
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	o := quickOpts()
	o.Configs = 2
	a, err := RunSweep(o, core.CompleteBinaryTree, StandardAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(o, core.CompleteBinaryTree, StandardAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	for alg := range a.Cells {
		for i := range a.Cells[alg] {
			if a.Cells[alg][i] != b.Cells[alg][i] {
				t.Errorf("%s cell %d nondeterministic", alg, i)
			}
		}
	}
}

// TestRunCellsReportsEveryFailure: every failed cell's error is joined, and
// o.Perf counts every cell as work but only finished cells as done, with
// their kernel events.
func TestRunCellsReportsEveryFailure(t *testing.T) {
	o := Options{Workers: 2, Perf: obs.NewRecorder()}
	err := runCells(o, 5, func(i int) (int64, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return int64(10 * i), nil
	})
	for _, want := range []string{"cell 1 failed", "cell 3 failed"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v does not report %q", err, want)
		}
	}
	rep := o.Perf.Report(0, 0)
	if rep.WorkTotal != 5 || rep.WorkDone != 3 || rep.Events != 60 {
		t.Errorf("work %d/%d, events %d; want 3/5 and 60", rep.WorkDone, rep.WorkTotal, rep.Events)
	}
}

func TestFigure2(t *testing.T) {
	r := Figure2(1, 3)
	if len(r.ShortBW) == 0 || len(r.LongBW) == 0 {
		t.Fatal("empty series")
	}
	if r.Stats.Mean <= 0 {
		t.Error("bad stats")
	}
	out := r.Render()
	if out == "" || len(out) < 50 {
		t.Errorf("render too short: %q", out)
	}
}

func TestFigure6Quick(t *testing.T) {
	r, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"one-shot", "global", "local"} {
		if len(r.Speedups[alg]) != 3 {
			t.Errorf("%s speedups = %v", alg, r.Speedups[alg])
		}
	}
	if r.Interarrival["download-all"] <= 0 {
		t.Error("no interarrival stats")
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure9Quick(t *testing.T) {
	o := quickOpts()
	o.Configs = 2
	r, err := Figure9(o, []time.Duration{2 * time.Minute, 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AvgSpeedup) != 2 {
		t.Errorf("speedups = %v", r.AvgSpeedup)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

// netHost shortens netmodel.HostID conversions in the tests above.
func netHost(i int) netmodel.HostID { return netmodel.HostID(i) }
