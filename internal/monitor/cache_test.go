package monitor

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// refCache is the map-and-sort measurement cache the ordered dense Cache
// replaced, kept verbatim as the differential oracle: entries live in a map
// keyed by the canonical pair, and every freshest call copies and sorts them.
type refCache struct {
	entries map[pairKey]Entry
}

type pairKey [2]netmodel.HostID

func keyOf(a, b netmodel.HostID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

func newRefCache() *refCache { return &refCache{entries: make(map[pairKey]Entry)} }

func (c *refCache) Record(a, b netmodel.HostID, bw trace.Bandwidth, at sim.Time, prov Provenance) {
	k := keyOf(a, b)
	if cur, ok := c.entries[k]; ok && cur.At >= at {
		return
	}
	c.entries[k] = Entry{A: k[0], B: k[1], BW: bw, At: at, Prov: prov}
}

func (c *refCache) LookupAny(a, b netmodel.HostID) (Entry, bool) {
	e, ok := c.entries[keyOf(a, b)]
	return e, ok
}

func (c *refCache) Len() int { return len(c.entries) }

func (c *refCache) freshest(max int) []Entry {
	all := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At > all[j].At
		}
		if all[i].A != all[j].A {
			return all[i].A < all[j].A
		}
		return all[i].B < all[j].B
	})
	if len(all) > max {
		all = all[:max]
	}
	return all
}

func (c *refCache) merge(entries []Entry) {
	for _, e := range entries {
		prov := ProvPiggyback
		if e.Prov == ProvStaleFallback {
			prov = ProvStaleFallback
		}
		c.Record(e.A, e.B, e.BW, e.At, prov)
	}
}

// newTestSystem returns a monitoring system whose piggyback budget holds
// budget entries. Its network has no hosts: caches exist for any host ID,
// and nothing here sends over a link.
func newTestSystem(budget int) *System {
	net := netmodel.NewNetwork(sim.NewKernel())
	cfg := DefaultConfig()
	cfg.PiggybackBudget = budget * DefaultEntrySize
	return NewSystem(net, cfg)
}

// sameCache reports the first way c and ref disagree over hosts [0, n): the
// full freshest list under ==, the budget-length prefix, Len, and LookupAny
// on every pair in both argument orders.
func sameCache(c *Cache, ref *refCache, n int) (string, bool) {
	if got, want := c.freshest(n*n), ref.freshest(n*n); !slices.Equal(got, want) {
		return "freshest", false
	}
	max := c.sys.maxEntries
	if got, want := c.freshest(max), ref.freshest(max); !slices.Equal(got, want) {
		return "freshest(budget)", false
	}
	if c.Len() != ref.Len() {
		return "Len", false
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			ge, gok := c.LookupAny(netmodel.HostID(a), netmodel.HostID(b))
			we, wok := ref.LookupAny(netmodel.HostID(a), netmodel.HostID(b))
			if ge != we || gok != wok {
				return "LookupAny", false
			}
		}
	}
	return "", true
}

// TestCacheMatchesReference drives the ordered dense cache and the
// map-and-sort oracle with the same random operations — records over up to
// 12 hosts with both argument orders, a handful of timestamps so ties are
// common, every provenance, merges of lists published by a third cache, and
// interleaved freshest calls — and requires them to agree after every step.
// A list src published earlier must also still read as it did then.
func TestCacheMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		sys := newTestSystem(1 + rng.Intn(8))
		c, src := sys.Cache(0), sys.Cache(1)
		ref, refSrc := newRefCache(), newRefCache()
		// lastPub is the list src published most recently, and lastCopy
		// its contents then; later records must never write into it.
		var lastPub *piggyback
		var lastCopy []Entry
		record := func(c *Cache, ref *refCache) {
			a, b := netmodel.HostID(rng.Intn(n)), netmodel.HostID(rng.Intn(n))
			bw := trace.Bandwidth(rng.Intn(4) * 1000)
			at := sim.Time(rng.Intn(5)) * sim.Second
			prov := Provenance(rng.Intn(int(ProvLocal) + 1))
			c.Record(a, b, bw, at, prov)
			ref.Record(a, b, bw, at, prov)
		}
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				record(c, ref)
			case op < 8:
				record(src, refSrc)
			case op < 9:
				pb, want := src.published(), refSrc.freshest(sys.maxEntries)
				var got []Entry
				if pb != nil {
					got = pb.entries
				}
				if !slices.Equal(got, want) {
					t.Logf("seed %d step %d: published %v, want %v", seed, step, got, want)
					return false
				}
				if pb != nil {
					lastPub, lastCopy = pb, slices.Clone(pb.entries)
				}
				c.merge(got)
				ref.merge(want)
			default:
				max := rng.Intn(2 * n)
				if got, want := c.freshest(max), ref.freshest(max); !slices.Equal(got, want) {
					t.Logf("seed %d step %d: freshest(%d) %v, want %v", seed, step, max, got, want)
					return false
				}
			}
			if lastPub != nil && !slices.Equal(lastPub.entries, lastCopy) {
				t.Logf("seed %d step %d: published list changed to %v, was %v", seed, step, lastPub.entries, lastCopy)
				return false
			}
			for _, p := range []struct {
				c   *Cache
				ref *refCache
			}{{c, ref}, {src, refSrc}} {
				if what, ok := sameCache(p.c, p.ref, n); !ok {
					t.Logf("seed %d step %d: %s differs from the reference", seed, step, what)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPublishedListIsImmutable: a published list is shared until the cache
// changes, and changes never write into it — messages in flight, and a
// duplicated delivery, still read it. Merging it twice leaves the receiver
// exactly as merging it once does.
func TestPublishedListIsImmutable(t *testing.T) {
	sys := newTestSystem(DefaultPiggybackBudget / DefaultEntrySize)
	c := sys.Cache(0)
	// The first records already span hosts 0-3, so the later ones reuse the
	// cache's storage rather than growing it.
	c.Record(0, 1, 100, 3*sim.Second, ProvFreshCache)
	c.Record(2, 1, 200, 2*sim.Second, ProvStaleFallback)
	c.Record(0, 3, 300, 1*sim.Second, ProvPiggyback)
	pb := c.published()
	if again := c.published(); again != pb {
		t.Fatal("an unchanged cache published a new list")
	}
	want := slices.Clone(pb.entries)

	c.Record(3, 2, 400, 9*sim.Second, ProvFreshCache) // new pair, sorts first
	c.Record(0, 3, 500, 4*sim.Second, ProvFreshCache) // replaces the last entry
	c.Record(1, 2, 600, 5*sim.Second, ProvFreshCache) // replaces a middle entry
	if !slices.Equal(pb.entries, want) {
		t.Fatalf("published list changed under later records: %v, want %v", pb.entries, want)
	}
	if next := c.published(); next == pb || next.entries[0].BW != 400 {
		t.Fatalf("changed cache republished %v", next.entries)
	}

	once, twice := sys.Cache(5), sys.Cache(6)
	for _, r := range []*Cache{once, twice} {
		r.Record(0, 1, 1, 1*sim.Second, ProvFreshCache)
		r.Record(1, 2, 2, 7*sim.Second, ProvFreshCache)
	}
	once.merge(pb.entries)
	twice.merge(pb.entries)
	twice.merge(pb.entries)
	if got, want := twice.freshest(100), once.freshest(100); !slices.Equal(got, want) {
		t.Errorf("duplicated delivery left %v, single delivery %v", got, want)
	}
}

// warmSystem returns a system whose caches for hosts 0-8 (8 servers and a
// client, the shape of every experiment) all hold the same measurement of
// every pair of the complete graph over those hosts.
func warmSystem() *System {
	sys := newTestSystem(DefaultPiggybackBudget / DefaultEntrySize)
	for h := 0; h < 9; h++ {
		for a := 0; a < 9; a++ {
			for b := a + 1; b < 9; b++ {
				at := sim.Time(netmodel.PairIndex(netmodel.HostID(a), netmodel.HostID(b))) * sim.Second
				sys.Cache(netmodel.HostID(h)).Record(netmodel.HostID(a), netmodel.HostID(b), 64*1024, at, ProvFreshCache)
			}
		}
	}
	return sys
}

// TestPiggybackZeroAlloc: re-attaching an unchanged cache's published list,
// and delivering a piggyback the receiver already holds, allocate nothing.
// The //lint:allocbudget sites of BeforeSend and AfterDeliver are publishing
// a changed cache's list and growing the cache tables, never this steady
// state.
func TestPiggybackZeroAlloc(t *testing.T) {
	sys := warmSystem()
	msg := &netmodel.Message{Src: 0, Dst: 1, Port: "d", Size: 1024}
	sys.BeforeSend(msg)
	if msg.Piggyback == nil {
		t.Fatal("warm cache attached nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		msg.Piggyback = nil
		sys.BeforeSend(msg)
	}); allocs != 0 {
		t.Errorf("BeforeSend on an unchanged cache allocated %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sys.AfterDeliver(msg, 0)
	}); allocs != 0 {
		t.Errorf("AfterDeliver of held entries allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkPiggyback measures one remote send's monitor work, BeforeSend
// then AfterDeliver, on the warm caches of a 9-host complete graph. In
// "unchanged" the sender's cache holds what it last published, so the list
// is re-attached and every merged entry is already held. In "changed" the
// sender first records one new measurement, so it publishes a new list and
// the receiver applies one entry.
func BenchmarkPiggyback(b *testing.B) {
	for _, changed := range []bool{false, true} {
		name := "unchanged"
		if changed {
			name = "changed"
		}
		b.Run(name, func(b *testing.B) {
			sys := warmSystem()
			msg := &netmodel.Message{Port: "d", Size: 1024}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := netmodel.HostID(i % 9)
				msg.Src, msg.Dst, msg.Piggyback = src, (src+1)%9, nil
				if changed {
					at := sim.Time(100+i) * sim.Second
					sys.Cache(src).Record(src, (src+4)%9, 32*1024, at, ProvFreshCache)
				}
				sys.BeforeSend(msg)
				sys.AfterDeliver(msg, 0)
			}
		})
	}
}
