// Package monitor implements the paper's on-demand network monitoring scheme
// (§4): passive measurement of any transfer of at least S_thres bytes (both
// endpoints learn the bandwidth), a per-host measurement cache whose entries
// time out after T_thres seconds, and piggybacking of the most recent
// measurements — those that fit within 1 KB — onto every outgoing message.
// Placement algorithms obtain bandwidth estimates through EstimateDetail,
// which falls back to an on-demand probe (a 16 KB round trip, as in the
// paper's trace methodology and systems like the Network Weather Service)
// when a host's cache has no fresh entry.
package monitor

import (
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// Defaults from the paper's experiments.
const (
	// DefaultSThres: transfers at least this large are measured passively.
	DefaultSThres int64 = 16 * 1024
	// DefaultTThres: cache entries time out after this long. The paper chose
	// 40 s — "a little less than half" the ~2 min expected period between
	// significant bandwidth changes in its traces.
	DefaultTThres = 40 * time.Second
	// DefaultPiggybackBudget: the freshest measurements that fit within 1 KB
	// ride on every message.
	DefaultPiggybackBudget = 1024
	// DefaultEntrySize: wire size of one piggybacked measurement (two host
	// ids, a bandwidth, a timestamp).
	DefaultEntrySize = 16
	// DefaultProbeSize: on-demand probes move 16 KB each way.
	DefaultProbeSize int64 = 16 * 1024
	// DefaultProbeTimeout caps how long a timed probe of a collapsed link
	// may take; a probe that would exceed it reports the implied
	// lower-bound bandwidth instead (Network Weather Service-style probe
	// timeouts). Without this, measuring a dead link stalls the placement
	// algorithm for the full (possibly hours-long) round trip.
	DefaultProbeTimeout = 30 * time.Second
)

// ProbeMode selects how on-demand bandwidth queries are charged.
type ProbeMode int

const (
	// ProbeTimed charges the requesting process the round-trip time of a
	// 16 KB probe against the link's current bandwidth, then returns the
	// measured value. This is the default: probes cost time but are not
	// routed through the endpoint NICs (the paper notes that on-demand
	// monitoring at the 5-10 minute relocation period does not significantly
	// impact the results).
	ProbeTimed ProbeMode = iota
	// ProbeOracle returns the ground-truth bandwidth instantly. Used for
	// ablations isolating algorithm quality from monitoring cost.
	ProbeOracle
)

// Provenance records where a bandwidth figure came from, both as the origin
// byte carried by every cache Entry and as the attribution EstimateDetail
// reports for each estimate it serves. The estimator-accuracy layer
// (internal/estacc) and the decision audit trail key their staleness
// analysis on it: a piggybacked entry and a probe-timeout bound can carry
// the same age but have very different error profiles.
type Provenance uint8

const (
	// ProvProbe: a completed on-demand probe measured the value for this
	// caller. Only EstimateDetail reports it; cache entries written from a
	// probe result are ProvFreshCache (locally measured) thereafter.
	ProvProbe Provenance = iota
	// ProvFreshCache: the entry was measured at this host — passively from
	// a large transfer, or as the landed result of an earlier probe.
	ProvFreshCache
	// ProvPiggyback: the entry was learned from another host's piggybacked
	// cache, not measured here.
	ProvPiggyback
	// ProvStaleFallback: the value is a probe-timeout pessimistic lower
	// bound, not a measurement; piggybacking preserves this marking.
	ProvStaleFallback
	// ProvLocal: a same-host "link", served as effectively infinite.
	ProvLocal
)

var provNames = [...]string{
	ProvProbe:         "probe",
	ProvFreshCache:    "fresh-cache",
	ProvPiggyback:     "piggyback",
	ProvStaleFallback: "stale-fallback",
	ProvLocal:         "local",
}

// String implements fmt.Stringer; the names appear as telemetry Aux values.
func (p Provenance) String() string {
	if int(p) < len(provNames) {
		return provNames[p]
	}
	return "unknown"
}

// Entry is a cached bandwidth measurement for a host pair.
type Entry struct {
	A, B netmodel.HostID // canonical order: A < B
	BW   trace.Bandwidth
	At   sim.Time   // measurement time
	Prov Provenance // how the entry got into this cache
}

// Config parameterises the monitoring system: the values the paper's
// studies and the ablations vary. Zero values take the defaults.
type Config struct {
	TThres          time.Duration
	PiggybackBudget int
	ProbeMode       ProbeMode
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		TThres:          DefaultTThres,
		PiggybackBudget: DefaultPiggybackBudget,
		ProbeMode:       ProbeTimed,
	}
}

// before is the piggyback order: newest first, ties broken by pair. Pairs
// are unique within a cache, so the order is total.
func before(x, y Entry) bool {
	if x.At != y.At {
		return x.At > y.At
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// slot is one dense-table cell; ok marks a pair the cache has seen.
type slot struct {
	e  Entry
	ok bool
}

// piggyback is one published freshest list. It is immutable: messages in
// flight and duplicated deliveries may still read it after the sender's
// cache has moved on, so a change drops the cache's reference and never
// writes into the entries.
type piggyback struct {
	entries []Entry
}

// Cache is one host's bandwidth measurement cache. table answers lookups by
// pair; order holds the same entries in piggyback order, so attaching the
// freshest measurements is a prefix copy rather than a sort.
type Cache struct {
	sys   *System
	table []slot
	order []Entry
	// snap is the piggyback published for the current contents, shared by
	// every message sent until a Record changes the cache.
	snap *piggyback
}

// Record stores a measurement with its provenance, keeping the newer of the
// existing and new entries for the pair: an equal or older timestamp is
// ignored.
//
//lint:hotpath
//lint:allocbudget 2 the pair table and order's capacity grow together when a higher host ID first appears; otherwise entries shift in place
func (c *Cache) Record(a, b netmodel.HostID, bw trace.Bandwidth, at sim.Time, prov Provenance) {
	if a > b {
		a, b = b, a
	}
	k := netmodel.PairIndex(a, b)
	// old is the slot the pair's entry leaves: its current position, or a
	// new last element. Everything between the new entry's position and old
	// sorts after the new entry, so one shift makes room.
	old := len(c.order)
	if k < len(c.table) && c.table[k].ok {
		cur := c.table[k].e
		if cur.At >= at {
			return
		}
		old = c.search(cur, old)
	} else {
		if k >= len(c.table) {
			// Room for every pair up to host b, so order never outgrows
			// its capacity between table growths.
			n := (int(b) + 1) * (int(b) + 2) / 2
			c.table = append(c.table, make([]slot, n-len(c.table))...)
			c.order = append(make([]Entry, 0, n), c.order...)
		}
		c.order = append(c.order, Entry{})
	}
	e := Entry{A: a, B: b, BW: bw, At: at, Prov: prov}
	i := c.search(e, old)
	copy(c.order[i+1:old+1], c.order[i:old])
	c.order[i] = e
	c.table[k] = slot{e: e, ok: true}
	c.snap = nil
}

// search returns the first position in order[:n] whose entry does not sort
// before e.
func (c *Cache) search(e Entry, n int) int {
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(c.order[m], e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Lookup returns the cached measurement for (a, b) if it is fresh (younger
// than T_thres).
func (c *Cache) Lookup(a, b netmodel.HostID) (Entry, bool) {
	e, ok := c.LookupAny(a, b)
	if !ok {
		return Entry{}, false
	}
	if c.sys.net.Kernel().Now().Sub(e.At) > c.sys.cfg.TThres {
		return Entry{}, false
	}
	return e, true
}

// LookupAny returns the cached measurement regardless of age.
func (c *Cache) LookupAny(a, b netmodel.HostID) (Entry, bool) {
	if k := netmodel.PairIndex(a, b); k < len(c.table) && c.table[k].ok {
		return c.table[k].e, true
	}
	return Entry{}, false
}

// Len returns the number of cached entries (including stale ones).
func (c *Cache) Len() int { return len(c.order) }

// freshest returns a copy of up to max entries, newest first.
func (c *Cache) freshest(max int) []Entry {
	n := min(len(c.order), max)
	return append([]Entry(nil), c.order[:n]...)
}

// published returns the piggyback for the cache's current contents, or nil
// when there is nothing to attach. It copies the freshest entries only on
// the first call after a change.
func (c *Cache) published() *piggyback {
	if c.snap == nil {
		entries := c.freshest(c.sys.maxEntries)
		if len(entries) == 0 {
			return nil
		}
		c.snap = &piggyback{entries: entries}
	}
	return c.snap
}

// merge folds piggybacked entries into the cache, keeping newer timestamps.
// Entries arriving here were learned over the wire, not measured locally, so
// they are re-marked ProvPiggyback — except probe-timeout bounds, whose
// ProvStaleFallback marking must survive any number of piggyback hops (a
// relayed pessimistic bound is still a bound, not a measurement).
func (c *Cache) merge(entries []Entry) {
	for _, e := range entries {
		// Most entries are already held at least as fresh here; skip them
		// before building the Record arguments.
		if k := netmodel.PairIndex(e.A, e.B); k < len(c.table) && c.table[k].ok && c.table[k].e.At >= e.At {
			continue
		}
		prov := ProvPiggyback
		if e.Prov == ProvStaleFallback {
			prov = ProvStaleFallback
		}
		c.Record(e.A, e.B, e.BW, e.At, prov)
	}
}

// System is the monitoring subsystem for one simulated network. It observes
// every transfer (passive monitoring + piggybacking) and serves bandwidth
// estimates to the placement algorithms.
type System struct {
	net    *netmodel.Network
	cfg    Config
	caches []*Cache // indexed by host ID, grown on demand
	// maxEntries is how many entries fit in the piggyback budget.
	maxEntries int

	probes      int64
	passiveMeas int64
	cacheHits   int64
	cacheMisses int64
}

// NewSystem creates the monitoring system and registers it as a transfer
// observer on the network.
func NewSystem(net *netmodel.Network, cfg Config) *System {
	if cfg.TThres <= 0 {
		cfg.TThres = DefaultTThres
	}
	if cfg.PiggybackBudget <= 0 {
		cfg.PiggybackBudget = DefaultPiggybackBudget
	}
	s := &System{net: net, cfg: cfg, maxEntries: cfg.PiggybackBudget / DefaultEntrySize}
	net.Observe(s)
	return s
}

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// Cache returns host h's measurement cache, creating it on first use.
func (s *System) Cache(h netmodel.HostID) *Cache {
	if int(h) >= len(s.caches) {
		s.caches = append(s.caches, make([]*Cache, int(h)+1-len(s.caches))...)
	}
	c := s.caches[h]
	if c == nil {
		c = &Cache{sys: s}
		s.caches[h] = c
	}
	return c
}

// Probes returns the number of on-demand probes performed.
func (s *System) Probes() int64 { return s.probes }

// PassiveMeasurements returns the number of passive measurements recorded.
func (s *System) PassiveMeasurements() int64 { return s.passiveMeas }

// CacheHitRate returns the fraction of EstimateDetail calls served from
// cache.
func (s *System) CacheHitRate() float64 {
	total := s.cacheHits + s.cacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.cacheHits) / float64(total)
}

// BeforeSend implements netmodel.Observer: attach the sender's freshest
// measurements, as many as fit in the piggyback budget. Messages sent until
// the sender's cache next changes share one published list. A same-host
// delivery carries nothing: its receiver's cache is the sender's, which
// already holds every entry.
//
//lint:hotpath
//lint:allocbudget 2 inlined from Cache.published and System.Cache: a changed cache publishes a new list, and a new host ID grows the cache slice; an unchanged cache allocates nothing
func (s *System) BeforeSend(msg *netmodel.Message) {
	if msg.Src == msg.Dst {
		return
	}
	if pb := s.Cache(msg.Src).published(); pb != nil {
		msg.Piggyback = pb
	}
}

// AfterDeliver implements netmodel.Observer: record a passive measurement at
// both endpoints if the message was large enough, and merge any piggybacked
// entries into the receiver's cache.
//
//lint:hotpath
//lint:allocbudget 2 both inlined System.Cache calls grow the cache slice when a new host ID appears; merging entries the receiver already holds is a table read per entry
func (s *System) AfterDeliver(msg *netmodel.Message, linkDuration time.Duration) {
	dst := s.Cache(msg.Dst)
	if msg.Src != msg.Dst && msg.Size >= DefaultSThres {
		bw := s.net.MeasuredBandwidth(msg.Size, linkDuration)
		if bw > 0 {
			now := s.net.Kernel().Now()
			s.Cache(msg.Src).Record(msg.Src, msg.Dst, bw, now, ProvFreshCache)
			dst.Record(msg.Src, msg.Dst, bw, now, ProvFreshCache)
			s.passiveMeas++
			if k := s.net.Kernel(); k.Telemetry() != nil {
				k.Emit(telemetry.Event{
					Kind: telemetry.KindPassiveMeasured,
					Host: int32(msg.Src), Peer: int32(msg.Dst),
					Bytes: msg.Size, Value: float64(bw),
				})
			}
		}
	}
	if pb, ok := msg.Piggyback.(*piggyback); ok {
		dst.merge(pb.entries)
	}
}

// EstimateInfo attributes one served estimate: where the value came from,
// when the underlying measurement was taken, and how much simulated time
// this call spent probing (zero for cache hits). It is a small value type so
// returning one allocates nothing.
type EstimateInfo struct {
	// Prov is the estimate's provenance at the moment of use.
	Prov Provenance
	// MeasuredAt is when the underlying measurement was taken; the
	// estimate's age at use is Now - MeasuredAt.
	MeasuredAt sim.Time
	// ProbeCost is the simulated time this call's on-demand probe cost the
	// requesting process (0 for cache hits and ProbeOracle probes).
	ProbeCost time.Duration
}

// ProbeDetail performs an on-demand bandwidth measurement of the (a, b) link
// on behalf of process p, records it in viewer's cache (and both
// endpoints'), and returns it with its attribution: whether the probe
// completed (ProvProbe) or hit the timeout lower-bound path
// (ProvStaleFallback), the measurement time, and the simulated time the
// probe cost the requesting process. Cost depends on the configured
// ProbeMode.
func (s *System) ProbeDetail(p *sim.Proc, viewer, a, b netmodel.HostID) (trace.Bandwidth, EstimateInfo) {
	s.probes++
	start := s.net.Kernel().Now()
	bw, prov := s.doProbe(p, viewer, a, b)
	now := s.net.Kernel().Now()
	info := EstimateInfo{Prov: prov, MeasuredAt: now, ProbeCost: now.Sub(start)}
	if k := s.net.Kernel(); k.Telemetry() != nil {
		k.Emit(telemetry.Event{
			Kind: telemetry.KindProbeIssued,
			Host: int32(a), Peer: int32(b), Node: int32(viewer),
			Value: float64(bw), Dur: int64(info.ProbeCost),
		})
	}
	return bw, info
}

func (s *System) doProbe(p *sim.Proc, viewer, a, b netmodel.HostID) (trace.Bandwidth, Provenance) {
	if s.cfg.ProbeMode == ProbeTimed {
		tr := s.net.Link(a, b)
		rtt := 2 * (netmodel.DefaultStartup + tr.TransferDuration(p.Now(), DefaultProbeSize))
		if rtt > DefaultProbeTimeout {
			// Probe timeout: report the bandwidth a transfer completing in
			// exactly the timeout would imply — a pessimistic lower bound
			// that correctly marks collapsed links as unusable without
			// stalling the caller for the full round trip.
			p.Hold(DefaultProbeTimeout)
			now := s.net.Kernel().Now()
			bw := trace.Bandwidth(float64(DefaultProbeSize) / DefaultProbeTimeout.Seconds())
			s.Cache(viewer).Record(a, b, bw, now, ProvStaleFallback)
			s.Cache(a).Record(a, b, bw, now, ProvStaleFallback)
			s.Cache(b).Record(a, b, bw, now, ProvStaleFallback)
			return bw, ProvStaleFallback
		}
		p.Hold(rtt)
	}
	now := s.net.Kernel().Now()
	bw := s.net.BandwidthAt(a, b, now)
	s.Cache(viewer).Record(a, b, bw, now, ProvFreshCache)
	s.Cache(a).Record(a, b, bw, now, ProvFreshCache)
	s.Cache(b).Record(a, b, bw, now, ProvFreshCache)
	return bw, ProvProbe
}

// EstimateDetail returns viewer's best estimate of the (a, b) bandwidth: a
// fresh cache entry if available, otherwise an on-demand probe. Same-host
// "links" are reported as infinitely fast via a very large constant. The
// returned info carries the estimate's provenance (probe / fresh-cache / piggyback / stale-fallback /
// local), the time the underlying measurement was taken, and the probe cost
// this call incurred. The placement-decision audit trail and the
// estimator-accuracy layer (internal/estacc) record it per consumed
// estimate, so prediction errors can be attributed to stale or second-hand
// entries vs fresh measurements. Cache hits (and same-host lookups) are
// zero-cost and allocation-free.
func (s *System) EstimateDetail(p *sim.Proc, viewer, a, b netmodel.HostID) (trace.Bandwidth, EstimateInfo) {
	if a == b {
		return localBandwidth, EstimateInfo{Prov: ProvLocal, MeasuredAt: s.net.Kernel().Now()}
	}
	if e, ok := s.Cache(viewer).Lookup(a, b); ok {
		s.cacheHits++
		return e.BW, EstimateInfo{Prov: e.Prov, MeasuredAt: e.At}
	}
	s.cacheMisses++
	return s.ProbeDetail(p, viewer, a, b)
}

// localBandwidth stands in for "no network hop": transfers between co-located
// operators are free, so the estimate is effectively infinite.
const localBandwidth trace.Bandwidth = 1 << 40
