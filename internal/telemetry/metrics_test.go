package telemetry

import "testing"

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("c") != c {
		t.Error("re-requesting a counter created a new one")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Set(1.5) // Set replaces the value
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	// Buckets have inclusive upper bounds (Prometheus "le" semantics), so the
	// observation 1 lands in le_1: [0.5 1], [5], [50], overflow [500].
	want := []int64{2, 1, 1, 1}
	for i, c := range snap.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, c, want[i], snap.Counts)
		}
	}
	if snap.Count != 5 || snap.Sum != 556.5 {
		t.Errorf("count=%d sum=%v", snap.Count, snap.Sum)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []float64{10, 1})
}

func TestSeriesDecimation(t *testing.T) {
	r := NewRegistry()
	s := r.Series("s")
	n := defaultSeriesPoints*4 + 17
	for i := 0; i < n; i++ {
		s.Sample(int64(i), float64(i))
	}
	if s.Len() > defaultSeriesPoints {
		t.Fatalf("series grew past the cap: %d > %d", s.Len(), defaultSeriesPoints)
	}
	snap := r.Snapshot().Series["s"]
	if len(snap.T) != len(snap.V) {
		t.Fatalf("parallel slices diverge: %d vs %d", len(snap.T), len(snap.V))
	}
	// Retained points must be a subsequence of the input, strictly ordered,
	// with values matching their timestamps.
	for i := range snap.T {
		if i > 0 && snap.T[i] <= snap.T[i-1] {
			t.Fatalf("times not increasing at %d: %d <= %d", i, snap.T[i], snap.T[i-1])
		}
		if snap.V[i] != float64(snap.T[i]) {
			t.Fatalf("point %d: value %v does not match time %d", i, snap.V[i], snap.T[i])
		}
	}
	// Decimation must be deterministic: an identical sample sequence retains
	// identical points.
	s2 := NewRegistry().Series("s")
	for i := 0; i < n; i++ {
		s2.Sample(int64(i), float64(i))
	}
	if s2.Len() != s.Len() {
		t.Errorf("same input, different retention: %d vs %d", s2.Len(), s.Len())
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	s := r.Series("s")
	s.Sample(1, 1)
	h := r.Histogram("h", []float64{1})
	h.Observe(0.5)
	snap := r.Snapshot()
	c.Inc()
	s.Sample(2, 2)
	h.Observe(0.5)
	if snap.Counters["c"] != 1 {
		t.Error("snapshot counter tracked later increments")
	}
	if len(snap.Series["s"].T) != 1 {
		t.Error("snapshot series tracked later samples")
	}
	if snap.Histograms["h"].Count != 1 {
		t.Error("snapshot histogram tracked later observations")
	}
}
