package experiment

import (
	"strings"
	"testing"

	"wadc/internal/core"
	"wadc/internal/placement"
)

// TestRunSweepAggregatesAllErrors: when several jobs of a sweep fail, the
// returned error must name every failing (config, algorithm) pair, not just
// the first one the scheduler happened to finish.
func TestRunSweepAggregatesAllErrors(t *testing.T) {
	o := quickOpts()
	algs := []AlgSpec{
		{Name: "good", New: func(Options, int64) placement.Policy { return placement.DownloadAll{} }},
		{Name: "broken", New: func(Options, int64) placement.Policy { return nil }},
	}
	_, err := RunSweep(o, core.CompleteBinaryTree, algs)
	if err == nil {
		t.Fatal("sweep with a nil policy succeeded")
	}
	msg := err.Error()
	for cfg := 0; cfg < o.Configs; cfg++ {
		want := "config " + string(rune('0'+cfg)) + ", broken"
		if !strings.Contains(msg, want) {
			t.Errorf("error does not report %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "good") {
		t.Errorf("error blames the healthy algorithm:\n%s", msg)
	}
}

// TestRunSweepPartialFailureKeepsGoodJobsOut: even with failures present the
// sweep returns no result — callers must not see a half-filled Sweep.
func TestRunSweepPartialFailureKeepsGoodJobsOut(t *testing.T) {
	o := quickOpts()
	algs := []AlgSpec{
		{Name: "broken", New: func(Options, int64) placement.Policy { return nil }},
	}
	sweep, err := RunSweep(o, core.CompleteBinaryTree, algs)
	if err == nil || sweep != nil {
		t.Fatalf("want nil sweep + error, got %v, %v", sweep, err)
	}
}

func TestFigureFaultsQuick(t *testing.T) {
	o := quickOpts()
	o.Configs = 2
	o.Iterations = 12
	rates := []float64{0, 1, 2}
	r, err := FigureFaults(o, rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"download-all", "one-shot", "local", "global"} {
		if len(r.Interarrival[alg]) != len(rates) {
			t.Fatalf("%s: %d interarrival points, want %d", alg, len(r.Interarrival[alg]), len(rates))
		}
		if r.Slowdown[alg][0] != 1 {
			t.Errorf("%s: fault-free slowdown = %v, want 1", alg, r.Slowdown[alg][0])
		}
	}
	if r.Crashes[0] != 0 || r.Dropped[0] != 0 {
		t.Errorf("rate 0 injected faults: crashes=%d dropped=%d", r.Crashes[0], r.Dropped[0])
	}
	if r.Crashes[1] == 0 {
		t.Error("rate 1 fired no crashes")
	}
	out := r.Render()
	if !strings.Contains(out, "fault rate") || !strings.Contains(out, "download-all") {
		t.Errorf("render missing table:\n%s", out)
	}
	t.Logf("\n%s", out)
}
