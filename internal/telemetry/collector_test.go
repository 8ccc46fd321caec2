package telemetry

import (
	"bytes"
	"encoding/csv"
	"slices"
	"testing"
)

// collected writes c's metrics CSV and indexes it: counter, gauge and
// histogram values by "type,name,key", series values by name in row order.
func collected(t *testing.T, c *Collector) (scalars map[string]string, series map[string][]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("reading metrics CSV: %v", err)
	}
	scalars, series = make(map[string]string), make(map[string][]string)
	for _, r := range rows[1:] {
		if r[0] == "series" {
			series[r[1]] = append(series[r[1]], r[3])
		} else {
			scalars[r[0]+","+r[1]+","+r[2]] = r[3]
		}
	}
	return scalars, series
}

func TestCollectorDerivesMetrics(t *testing.T) {
	c := NewCollector()
	// Two transfers on the same link (canonical pair ordering must merge the
	// two directions), one kernel event, some dataflow traffic.
	c.Emit(Event{Kind: KindProcHold, At: 1})
	c.Emit(Event{Kind: KindTransferEnd, At: 10, Host: 0, Peer: 2, Bytes: 2048, Dur: 2_000_000_000, Value: 1024})
	c.Emit(Event{Kind: KindTransferEnd, At: 20, Host: 2, Peer: 0, Bytes: 2048, Dur: 1_000_000_000, Value: 2048})
	c.Emit(Event{Kind: KindDemandSent, At: 30, Node: 4})
	c.Emit(Event{Kind: KindDemandSent, At: 31, Node: 5})
	c.Emit(Event{Kind: KindDataServed, At: 40, Node: 4})
	c.Emit(Event{Kind: KindCriticalChanged, At: 50, Node: 4, Value: 1})
	c.Emit(Event{Kind: KindCriticalChanged, At: 51, Node: 4, Value: 1}) // duplicate: no-op
	c.Emit(Event{Kind: KindCriticalChanged, At: 60, Node: 5, Value: 1})
	c.Emit(Event{Kind: KindCriticalChanged, At: 70, Node: 4, Value: 0})

	scalars, series := collected(t, c)
	for key, want := range map[string]string{
		"counter,sim.kernel_events,":        "1",
		"counter,sim.model_events,":         "9",
		"counter,net.transfers,":            "2",
		"counter,net.bytes_moved,":          "4096",
		"counter,events.transfer-end,":      "2",
		"counter,events.demand-sent,":       "2",
		"counter,events.data-served,":       "1",
		"counter,events.critical-changed,":  "4",
		"counter,link.h0-h2.bytes,":         "4096",
		"gauge,dataflow.queue_depth,":       "1",
		"gauge,dataflow.critical_path_len,": "1",
		"hist,net.transfer_ms,count":        "2",
		"hist,net.transfer_ms,sum":          "3000",
	} {
		if got := scalars[key]; got != want {
			t.Errorf("%s = %q, want %q", key, got, want)
		}
	}
	for name, want := range map[string][]string{
		"link.h0-h2.kbps":            {"1", "2"}, // KB/s
		"op.n4.queue_depth":          {"1", "0"},
		"dataflow.critical_path_len": {"1", "2", "1"},
	} {
		if got := series[name]; !slices.Equal(got, want) {
			t.Errorf("series %s = %v, want %v", name, got, want)
		}
	}
}

func TestCollectorDataServedUnderflowClamped(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Kind: KindDataServed, At: 1, Node: 3}) // served with no demand outstanding
	scalars, _ := collected(t, c)
	if got := scalars["gauge,dataflow.queue_depth,"]; got != "0" {
		t.Errorf("queue depth went negative: %s", got)
	}
}

// TestWriteMetricsCSV pins the table's layout: the header, then counters,
// gauges, histograms and series, each sorted by name, with every bucket of
// both transfer histograms and seconds to six decimals.
func TestWriteMetricsCSV(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Kind: KindProcHold, At: 1})
	c.Emit(Event{Kind: KindTransferEnd, At: 1_234_567_891, Host: 3, Peer: 1, Bytes: 1280, Dur: 1_500_000_000, Value: 2048})
	c.Emit(Event{Kind: KindDemandSent, At: 2_000_000_000, Node: 2})
	c.Emit(Event{Kind: KindCriticalChanged, At: 2_500_000_000, Node: 2, Value: 1})

	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	const want = `type,name,key,value
counter,events.critical-changed,,1
counter,events.demand-sent,,1
counter,events.transfer-end,,1
counter,link.h1-h3.bytes,,1280
counter,net.bytes_moved,,1280
counter,net.transfers,,1
counter,sim.kernel_events,,1
counter,sim.model_events,,3
gauge,dataflow.critical_path_len,,1
gauge,dataflow.queue_depth,,1
hist,net.transfer_kb,le_1,0
hist,net.transfer_kb,le_2,1
hist,net.transfer_kb,le_4,0
hist,net.transfer_kb,le_16,0
hist,net.transfer_kb,le_64,0
hist,net.transfer_kb,le_128,0
hist,net.transfer_kb,le_256,0
hist,net.transfer_kb,le_512,0
hist,net.transfer_kb,le_1024,0
hist,net.transfer_kb,le_4096,0
hist,net.transfer_kb,le_inf,0
hist,net.transfer_kb,count,1
hist,net.transfer_kb,sum,1.25
hist,net.transfer_ms,le_50,0
hist,net.transfer_ms,le_100,0
hist,net.transfer_ms,le_250,0
hist,net.transfer_ms,le_500,0
hist,net.transfer_ms,le_1000,0
hist,net.transfer_ms,le_2500,1
hist,net.transfer_ms,le_5000,0
hist,net.transfer_ms,le_10000,0
hist,net.transfer_ms,le_30000,0
hist,net.transfer_ms,le_60000,0
hist,net.transfer_ms,le_300000,0
hist,net.transfer_ms,le_inf,0
hist,net.transfer_ms,count,1
hist,net.transfer_ms,sum,1500
series,dataflow.critical_path_len,2.500000,1
series,dataflow.queue_depth,2.000000,1
series,link.h1-h3.kbps,1.234568,2
series,op.n2.queue_depth,2.000000,1
`
	if got := buf.String(); got != want {
		t.Errorf("metrics CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.observe(v)
	}
	// Buckets have inclusive upper bounds (Prometheus "le" semantics), so the
	// observation 1 lands in le_1: [0.5 1], [5], [50], overflow [500].
	if want := []int64{2, 1, 1, 1}; !slices.Equal(h.counts, want) {
		t.Errorf("buckets = %v, want %v", h.counts, want)
	}
	if h.sum != 556.5 {
		t.Errorf("sum = %v, want 556.5", h.sum)
	}
}

func TestSeriesDecimation(t *testing.T) {
	var s series
	n := maxSeriesPoints*4 + 17
	for i := range n {
		s.sample(int64(i), float64(i))
	}
	if len(s.points) > maxSeriesPoints {
		t.Fatalf("series grew past the cap: %d > %d", len(s.points), maxSeriesPoints)
	}
	// Retained points must be a subsequence of the input on the current
	// stride, strictly ordered, with values matching their timestamps.
	for i, p := range s.points {
		if i > 0 && p.at <= s.points[i-1].at {
			t.Fatalf("times not increasing at %d: %d <= %d", i, p.at, s.points[i-1].at)
		}
		if p.at%(1<<s.shift) != 0 {
			t.Fatalf("point %d at %d is off the stride %d", i, p.at, 1<<s.shift)
		}
		if p.v != float64(p.at) {
			t.Fatalf("point %d: value %v does not match time %d", i, p.v, p.at)
		}
	}
	// Decimation must be deterministic: an identical sample sequence retains
	// identical points.
	var s2 series
	for i := range n {
		s2.sample(int64(i), float64(i))
	}
	if !slices.Equal(s2.points, s.points) {
		t.Errorf("same input, different retention: %d vs %d points", len(s2.points), len(s.points))
	}
}
