package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strconv"
)

// Histogram bucket bounds used by the collector, ascending.
var (
	// transferMsBounds buckets transfer durations in milliseconds (the
	// per-message startup alone is 50 ms; WAN transfers under bandwidth dips
	// stretch into minutes).
	transferMsBounds = []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}
	// transferKBBounds buckets transfer sizes in KB (control messages are
	// ~1.25 KB, probes 16 KB, images ~128 KB, composed outputs larger).
	transferKBBounds = []float64{1, 2, 4, 16, 64, 128, 256, 512, 1024, 4096}
)

// Collector is a Sink that derives a run's metrics from the event stream:
// counters for every model-level kind, transfer histograms, per-link
// utilization series, per-operator queue depths and the critical-path-length
// series. It performs no I/O and never mutates simulation state, so it can
// ride on any run without perturbing determinism. WriteCSV exports what it
// collected.
type Collector struct {
	kernelEvents, modelEvents int64
	transfers, bytesMoved     int64
	byKind                    [kindCount]int64
	transferMs, transferKB    histogram

	// Per-link metrics, keyed by canonical (low, high) host pair.
	linkBytes map[[2]int32]int64
	linkBW    map[[2]int32]*series

	// Outstanding-demand tracking: per producer node and in total.
	depth       map[int32]int64
	depthSeries map[int32]*series
	totalDepth  int64
	totalSeries series

	// Critical-path-length tracking (count of nodes flagged critical).
	critical    map[int32]bool
	criticalLen int64
	criticalSrs series
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		transferMs:  newHistogram(transferMsBounds),
		transferKB:  newHistogram(transferKBBounds),
		linkBytes:   make(map[[2]int32]int64),
		linkBW:      make(map[[2]int32]*series),
		depth:       make(map[int32]int64),
		depthSeries: make(map[int32]*series),
		critical:    make(map[int32]bool),
	}
}

func linkPair(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// seriesAt returns m[k], creating it on first use.
func seriesAt[K comparable](m map[K]*series, k K) *series {
	s := m[k]
	if s == nil {
		s = new(series)
		m[k] = s
	}
	return s
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	if ev.Kind.Kernel() {
		// Scheduler-level events are counted in bulk only, not per kind.
		c.kernelEvents++
		return
	}
	c.modelEvents++
	c.byKind[ev.Kind]++

	switch ev.Kind {
	case KindTransferEnd:
		c.transfers++
		c.bytesMoved += ev.Bytes
		c.transferMs.observe(float64(ev.Dur) / 1e6)
		c.transferKB.observe(float64(ev.Bytes) / 1024)
		link := linkPair(ev.Host, ev.Peer)
		c.linkBytes[link] += ev.Bytes
		if ev.Value > 0 {
			// Achieved application-level bandwidth on the link, in KB/s (the
			// paper's unit for its trace plots).
			seriesAt(c.linkBW, link).sample(ev.At, ev.Value/1024)
		}
	case KindDemandSent:
		c.depth[ev.Node]++
		c.totalDepth++
		c.sampleDepth(ev.At, ev.Node)
	case KindDataServed:
		if c.depth[ev.Node] > 0 {
			c.depth[ev.Node]--
			c.totalDepth--
		}
		c.sampleDepth(ev.At, ev.Node)
	case KindCriticalChanged:
		if now := ev.Value > 0.5; c.critical[ev.Node] != now {
			c.critical[ev.Node] = now
			if now {
				c.criticalLen++
			} else {
				c.criticalLen--
			}
			c.criticalSrs.sample(ev.At, float64(c.criticalLen))
		}
	}
}

func (c *Collector) sampleDepth(at int64, node int32) {
	seriesAt(c.depthSeries, node).sample(at, float64(c.depth[node]))
	c.totalSeries.sample(at, float64(c.totalDepth))
}

// WriteCSV writes the collected metrics as one flat CSV table with the
// columns (type, name, key, value), section by section, each sorted by name:
//
//   - counters:   counter,<name>,,<value>
//   - gauges:     gauge,<name>,,<value> (the last queue depth and
//     critical-path length)
//   - histograms: hist,<name>,le_<bound>,<count> … plus hist,<name>,count,…
//     and hist,<name>,sum,…  (the final bucket key is le_inf)
//   - series:     series,<name>,<t_seconds>,<value> (one row per point)
//
// The single-table shape keeps sweep tooling trivial: every metric of every
// run lands in one schema.
func (c *Collector) WriteCSV(w io.Writer) error {
	counters := map[string]int64{
		"net.bytes_moved":   c.bytesMoved,
		"net.transfers":     c.transfers,
		"sim.kernel_events": c.kernelEvents,
		"sim.model_events":  c.modelEvents,
	}
	for k, n := range c.byKind {
		if n > 0 {
			counters["events."+Kind(k).String()] = n
		}
	}
	for l, n := range c.linkBytes {
		counters[fmt.Sprintf("link.h%d-h%d.bytes", l[0], l[1])] = n
	}
	sampled := map[string]*series{
		"dataflow.critical_path_len": &c.criticalSrs,
		"dataflow.queue_depth":       &c.totalSeries,
	}
	for l, s := range c.linkBW {
		sampled[fmt.Sprintf("link.h%d-h%d.kbps", l[0], l[1])] = s
	}
	for n, s := range c.depthSeries {
		sampled[fmt.Sprintf("op.n%d.queue_depth", n)] = s
	}

	cw := csv.NewWriter(w)
	var err error
	write := func(row ...string) {
		if err == nil {
			err = cw.Write(row)
		}
	}
	write("type", "name", "key", "value")
	for _, name := range slices.Sorted(maps.Keys(counters)) {
		write("counter", name, "", strconv.FormatInt(counters[name], 10))
	}
	write("gauge", "dataflow.critical_path_len", "", formatFloat(float64(c.criticalLen)))
	write("gauge", "dataflow.queue_depth", "", formatFloat(float64(c.totalDepth)))
	for _, h := range []struct {
		name string
		*histogram
	}{{"net.transfer_kb", &c.transferKB}, {"net.transfer_ms", &c.transferMs}} {
		var n int64
		for i, count := range h.counts {
			key := "le_inf"
			if i < len(h.bounds) {
				key = "le_" + formatFloat(h.bounds[i])
			}
			write("hist", h.name, key, strconv.FormatInt(count, 10))
			n += count
		}
		write("hist", h.name, "count", strconv.FormatInt(n, 10))
		write("hist", h.name, "sum", formatFloat(h.sum))
	}
	for _, name := range slices.Sorted(maps.Keys(sampled)) {
		for _, p := range sampled[name].points {
			write("series", name, strconv.FormatFloat(float64(p.at)/1e9, 'f', 6, 64), formatFloat(p.v))
		}
	}
	cw.Flush()
	if err == nil {
		err = cw.Error()
	}
	if err != nil {
		return fmt.Errorf("telemetry: writing metrics CSV: %w", err)
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// histogram counts observations into fixed buckets: counts[i] is the number
// of observations <= bounds[i] (Prometheus "le" semantics); the final slot is
// the overflow bucket.
type histogram struct {
	bounds []float64
	counts []int64
	sum    float64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
}

// maxSeriesPoints caps a series' stored points; beyond it the series
// decimates (drops every other retained point and doubles its stride), so
// memory stays bounded on long runs while the shape of the curve survives.
const maxSeriesPoints = 4096

// series is a bounded time-series sampler: (simulated time, value) points
// taken every 2^shift-th sample. The retained points are a pure function of
// the sample sequence, so same-seed runs export identical series. The zero
// value is empty and keeps every sample.
type series struct {
	shift  uint
	seen   int64
	points []point
}

type point struct {
	at int64
	v  float64
}

// sample records (at, v) subject to the current stride; when the buffer is
// full it first halves the retained points and doubles the stride.
func (s *series) sample(at int64, v float64) {
	take := s.seen%(1<<s.shift) == 0
	s.seen++
	if !take {
		return
	}
	if len(s.points) >= maxSeriesPoints {
		keep := 0
		for i := 0; i < len(s.points); i += 2 {
			s.points[keep] = s.points[i]
			keep++
		}
		s.points = s.points[:keep]
		s.shift++
	}
	s.points = append(s.points, point{at, v})
}
