package telemetry

import (
	"fmt"
	"sort"
)

// Registry is a per-run metrics registry: named counters, gauges,
// fixed-bucket histograms and time-series samplers. A registry belongs to a
// single run (the simulation is single-threaded), so none of its operations
// lock. Snapshot produces a deterministic, name-sorted view for export.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram with the
// given ascending bucket upper bounds. Observations beyond the last bound
// land in an implicit overflow bucket. Bounds are fixed at creation;
// re-requesting an existing histogram ignores the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
			}
		}
		h = &Histogram{name: name, bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// Series returns (creating on first use) the named time-series sampler.
func (r *Registry) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{name: name, maxPoints: defaultSeriesPoints, stride: 1}
		r.series[name] = s
	}
	return s
}

// Counter is a monotonically increasing int64.
type Counter struct {
	name string
	v    int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v += d }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	name string
	v    float64
}

// Name returns the gauge's registry name.
func (g *Gauge) Name() string { return g.name }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed buckets: counts[i] is the number
// of observations <= bounds[i]; the final slot is the overflow bucket.
type Histogram struct {
	name   string
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// defaultSeriesPoints caps a series' stored points; beyond it the series
// decimates (drops every other retained point and doubles its stride), so
// memory stays bounded on long runs while the shape of the curve survives.
const defaultSeriesPoints = 4096

// Series is a bounded time-series sampler: (simulated time, value) points
// with deterministic decimation once maxPoints is reached. Determinism
// matters: the retained points are a pure function of the sample sequence,
// so same-seed runs snapshot identical series.
type Series struct {
	name      string
	maxPoints int
	stride    int64
	seen      int64
	t         []int64
	v         []float64
}

// Name returns the series' registry name.
func (s *Series) Name() string { return s.name }

// Sample records (at, v) subject to the current stride; when the buffer is
// full it first halves the retained points and doubles the stride.
func (s *Series) Sample(at int64, v float64) {
	take := s.seen%s.stride == 0
	s.seen++
	if !take {
		return
	}
	if len(s.t) >= s.maxPoints {
		keep := 0
		for i := 0; i < len(s.t); i += 2 {
			s.t[keep], s.v[keep] = s.t[i], s.v[i]
			keep++
		}
		s.t, s.v = s.t[:keep], s.v[:keep]
		s.stride *= 2
	}
	s.t = append(s.t, at)
	s.v = append(s.v, v)
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.t) }

// HistogramSnapshot is an exported histogram state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow slot.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// SeriesSnapshot is an exported series state: parallel time (ns) and value
// slices.
type SeriesSnapshot struct {
	T []int64   `json:"t"`
	V []float64 `json:"v"`
}

// Snapshot is a point-in-time copy of a registry, safe to retain after the
// run and deterministic in iteration order via sorted name slices.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Series     map[string]SeriesSnapshot    `json:"series"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
		Series:     make(map[string]SeriesSnapshot, len(r.series)),
	}
	for n, c := range r.counters {
		snap.Counters[n] = c.v
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.v
	}
	for n, h := range r.histograms {
		snap.Histograms[n] = HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Count:  h.n,
			Sum:    h.sum,
		}
	}
	for n, s := range r.series {
		snap.Series[n] = SeriesSnapshot{
			T: append([]int64(nil), s.t...),
			V: append([]float64(nil), s.v...),
		}
	}
	return snap
}

// sortedKeys returns the map's keys in sorted order (export determinism).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
