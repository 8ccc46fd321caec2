package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestGCSnapshotDeltaLive(t *testing.T) {
	base := readGCSnapshot()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64*1024))
	}
	runtime.GC()
	runtime.GC()
	_ = sink
	d := readGCSnapshot().delta(base)

	if d.Cycles < 2 {
		t.Errorf("Cycles = %d, want >= 2 after two forced GCs", d.Cycles)
	}
	if d.PauseTotalNs <= 0 {
		t.Errorf("PauseTotalNs = %d, want > 0", d.PauseTotalNs)
	}
	if d.PauseP50Ns > d.PauseP95Ns || d.PauseP95Ns > d.PauseMaxNs {
		t.Errorf("pause quantiles not ordered: p50 %d p95 %d max %d",
			d.PauseP50Ns, d.PauseP95Ns, d.PauseMaxNs)
	}
	if d.HeapGoalBytes == 0 || d.HeapLiveBytes == 0 || d.StackBytes == 0 {
		t.Errorf("gauges zero: goal %d live %d stacks %d",
			d.HeapGoalBytes, d.HeapLiveBytes, d.StackBytes)
	}
	if d.AssistCPUSec < 0 || d.GCCPUSec < 0 {
		t.Errorf("CPU deltas negative: assist %v gc %v", d.AssistCPUSec, d.GCCPUSec)
	}
}

func TestGCDeltaHistogramMath(t *testing.T) {
	buckets := []float64{0, 1e-6, 1e-5, math.Inf(1)}
	base := gcSnapshot{
		pauseBuckets: buckets,
		pauseCounts:  []uint64{2, 0, 0},
	}
	end := gcSnapshot{
		cycles:       7,
		pauseBuckets: buckets,
		pauseCounts:  []uint64{12, 10, 0},
	}
	d := end.delta(base)

	if d.Cycles != 7 {
		t.Errorf("Cycles = %d, want 7", d.Cycles)
	}
	// Deltas: 10 pauses at midpoint 0.5us, 10 at 5.5us.
	if d.PauseP50Ns != 500 {
		t.Errorf("PauseP50Ns = %d, want 500", d.PauseP50Ns)
	}
	if d.PauseP95Ns != 5500 {
		t.Errorf("PauseP95Ns = %d, want 5500", d.PauseP95Ns)
	}
	if d.PauseMaxNs != 5500 {
		t.Errorf("PauseMaxNs = %d, want 5500", d.PauseMaxNs)
	}
	if want := int64(10*500 + 10*5500); d.PauseTotalNs != want {
		t.Errorf("PauseTotalNs = %d, want %d", d.PauseTotalNs, want)
	}
}

func TestGCDeltaClampsNegativeCPU(t *testing.T) {
	base := gcSnapshot{assistCPU: 5, gcCPU: 9}
	end := gcSnapshot{assistCPU: 4.9, gcCPU: 8.5}
	d := end.delta(base)
	if d.AssistCPUSec != 0 || d.GCCPUSec != 0 {
		t.Errorf("negative CPU deltas not clamped: assist %v gc %v",
			d.AssistCPUSec, d.GCCPUSec)
	}
}

func TestGCDeltaEmptyHistogram(t *testing.T) {
	d := gcSnapshot{cycles: 3}.delta(gcSnapshot{cycles: 1})
	if d.Cycles != 2 {
		t.Errorf("Cycles = %d, want 2", d.Cycles)
	}
	if d.PauseTotalNs != 0 || d.PauseMaxNs != 0 {
		t.Errorf("pause stats nonzero without histogram: %+v", d)
	}
}

func TestGCStatsSummary(t *testing.T) {
	g := &GCStats{Cycles: 3, PauseP50Ns: 1000, PauseP95Ns: 2000, PauseMaxNs: 2000,
		PauseTotalNs: 5000, AssistCPUSec: 0.25}
	s := g.Summary()
	for _, want := range []string{"3 cycles", "p50", "p95", "assist 0.250s"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q: %s", want, s)
		}
	}
}

func TestRecorderReportIncludesGC(t *testing.T) {
	r := NewRecorder()
	runtime.GC()
	rep := r.Report(0, 0)
	if rep.GC == nil {
		t.Fatal("Report.GC = nil, want populated GC stats")
	}
	if rep.GC.Cycles < 1 {
		t.Errorf("Report.GC.Cycles = %d, want >= 1 after forced GC", rep.GC.Cycles)
	}
	if rep.GC.HeapGoalBytes == 0 {
		t.Error("Report.GC.HeapGoalBytes = 0, want nonzero gauge")
	}
	out := rep.Format()
	if !strings.Contains(out, "gc ") || !strings.Contains(out, "heap goal") {
		t.Errorf("Format missing GC section:\n%s", out)
	}
}
