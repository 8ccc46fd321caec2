package telemetry

import "fmt"

// Histogram bucket bounds used by the collector.
var (
	// transferMsBounds buckets transfer durations in milliseconds (the
	// per-message startup alone is 50 ms; WAN transfers under bandwidth dips
	// stretch into minutes).
	transferMsBounds = []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}
	// transferKBBounds buckets transfer sizes in KB (control messages are
	// ~1.25 KB, probes 16 KB, images ~128 KB, composed outputs larger).
	transferKBBounds = []float64{1, 2, 4, 16, 64, 128, 256, 512, 1024, 4096}
)

// Collector is a Sink that derives a metrics Registry from the event stream:
// counters for every model-level kind, transfer histograms, per-link
// utilization series, per-operator queue depths and the critical-path-length
// series. It performs no I/O and never mutates simulation state, so it can
// ride on any run without perturbing determinism.
type Collector struct {
	reg *Registry

	// Pre-resolved hot-path instruments.
	kernelEvents *Counter
	modelEvents  *Counter
	transfers    *Counter
	bytesMoved   *Counter
	transferMs   *Histogram
	transferKB   *Histogram

	byKind [kindCount]*Counter

	// Per-link instruments, keyed by canonical (low, high) host pair.
	linkBytes map[[2]int32]*Counter
	linkBW    map[[2]int32]*Series

	// Outstanding-demand tracking: per producer node and in total.
	depth       map[int32]int64
	depthSeries map[int32]*Series
	totalDepth  int64
	totalSeries *Series
	depthGauge  *Gauge

	// Critical-path-length tracking (count of nodes flagged critical).
	critical     map[int32]bool
	criticalLen  int64
	criticalSrs  *Series
	criticalGage *Gauge
}

// NewCollector returns a collector over a fresh registry.
func NewCollector() *Collector {
	reg := NewRegistry()
	c := &Collector{
		reg:          reg,
		kernelEvents: reg.Counter("sim.kernel_events"),
		modelEvents:  reg.Counter("sim.model_events"),
		transfers:    reg.Counter("net.transfers"),
		bytesMoved:   reg.Counter("net.bytes_moved"),
		transferMs:   reg.Histogram("net.transfer_ms", transferMsBounds),
		transferKB:   reg.Histogram("net.transfer_kb", transferKBBounds),
		linkBytes:    make(map[[2]int32]*Counter),
		linkBW:       make(map[[2]int32]*Series),
		depth:        make(map[int32]int64),
		depthSeries:  make(map[int32]*Series),
		totalSeries:  reg.Series("dataflow.queue_depth"),
		depthGauge:   reg.Gauge("dataflow.queue_depth"),
		critical:     make(map[int32]bool),
		criticalSrs:  reg.Series("dataflow.critical_path_len"),
		criticalGage: reg.Gauge("dataflow.critical_path_len"),
	}
	return c
}

// Snapshot snapshots the underlying registry.
func (c *Collector) Snapshot() *Snapshot { return c.reg.Snapshot() }

func linkPair(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

func (c *Collector) linkByteCounter(a, b int32) *Counter {
	k := linkPair(a, b)
	ctr, ok := c.linkBytes[k]
	if !ok {
		ctr = c.reg.Counter(fmt.Sprintf("link.h%d-h%d.bytes", k[0], k[1]))
		c.linkBytes[k] = ctr
	}
	return ctr
}

func (c *Collector) linkBWSeries(a, b int32) *Series {
	k := linkPair(a, b)
	s, ok := c.linkBW[k]
	if !ok {
		s = c.reg.Series(fmt.Sprintf("link.h%d-h%d.kbps", k[0], k[1]))
		c.linkBW[k] = s
	}
	return s
}

func (c *Collector) kindCounter(k Kind) *Counter {
	ctr := c.byKind[k]
	if ctr == nil {
		ctr = c.reg.Counter("events." + k.String())
		c.byKind[k] = ctr
	}
	return ctr
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	if ev.Kind.Kernel() {
		// Scheduler-level events are counted in bulk only; per-kind
		// instruments at this volume would dominate the run's cost.
		c.kernelEvents.Inc()
		return
	}
	c.modelEvents.Inc()
	c.kindCounter(ev.Kind).Inc()

	switch ev.Kind {
	case KindTransferEnd:
		c.transfers.Inc()
		c.bytesMoved.Add(ev.Bytes)
		c.transferMs.Observe(float64(ev.Dur) / 1e6)
		c.transferKB.Observe(float64(ev.Bytes) / 1024)
		c.linkByteCounter(ev.Host, ev.Peer).Add(ev.Bytes)
		if ev.Value > 0 {
			// Achieved application-level bandwidth on the link, in KB/s (the
			// paper's unit for its trace plots).
			c.linkBWSeries(ev.Host, ev.Peer).Sample(ev.At, ev.Value/1024)
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
		now := ev.Value > 0.5
		if c.critical[ev.Node] != now {
			c.critical[ev.Node] = now
			if now {
				c.criticalLen++
			} else {
				c.criticalLen--
			}
			c.criticalGage.Set(float64(c.criticalLen))
			c.criticalSrs.Sample(ev.At, float64(c.criticalLen))
		}
	}
}

func (c *Collector) sampleDepth(at int64, node int32) {
	s, ok := c.depthSeries[node]
	if !ok {
		s = c.reg.Series(fmt.Sprintf("op.n%d.queue_depth", node))
		c.depthSeries[node] = s
	}
	s.Sample(at, float64(c.depth[node]))
	c.depthGauge.Set(float64(c.totalDepth))
	c.totalSeries.Sample(at, float64(c.totalDepth))
}
