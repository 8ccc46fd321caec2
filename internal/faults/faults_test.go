package faults

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
)

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config must be disabled")
	}
	for _, c := range []Config{
		{Crashes: 1},
		{DropProb: 0.01},
		{DupProb: 0.01},
		{LinkOutages: 1},
		{Plan: &Plan{}},
	} {
		if !c.Enabled() {
			t.Fatalf("%+v should be enabled", c)
		}
	}
}

// arbitraryConfig maps quick-generated raw values onto a generation config.
func arbitraryConfig(seed int64, crashes, outages uint8, downtimeS, horizonM uint8) Config {
	return Config{
		Seed:           seed,
		Crashes:        int(crashes % 40),
		MeanDowntime:   time.Duration(downtimeS%240+1) * time.Second,
		LinkOutages:    int(outages % 20),
		OutageDuration: 20 * time.Second,
		Horizon:        time.Duration(horizonM%50+1) * time.Minute,
	}
}

// TestGenerateValidProperty: every generated plan validates — in particular
// crash windows never overlap per host, every recovery is at or after its
// crash, and the protected host is never crashed.
func TestGenerateValidProperty(t *testing.T) {
	prop := func(seed int64, crashes, outages, downtimeS, horizonM uint8, hostsC uint8) bool {
		numHosts := int(hostsC%12) + 2
		protected := netmodel.HostID(numHosts - 1)
		cfg := arbitraryConfig(seed, crashes, outages, downtimeS, horizonM)
		pl := Generate(cfg, numHosts, protected)
		if err := pl.Validate(numHosts, protected); err != nil {
			t.Logf("cfg %+v hosts=%d: %v", cfg, numHosts, err)
			return false
		}
		for _, w := range pl.Crashes {
			if w.RecoverAt < w.At {
				return false
			}
			if w.Host == protected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestGenerateDeterministic: same config, same plan.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Crashes: 10, DropProb: 0.05, DupProb: 0.02, LinkOutages: 5}
	a := Generate(cfg, 9, 8)
	b := Generate(cfg, 9, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic for a fixed config")
	}
}

func TestGenerateCrashWindowsSorted(t *testing.T) {
	pl := Generate(Config{Seed: 3, Crashes: 25}, 6, 5)
	if !sort.SliceIsSorted(pl.Crashes, func(i, j int) bool { return pl.Crashes[i].At < pl.Crashes[j].At }) {
		t.Fatal("crash windows not sorted by start time")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"recover before crash", Plan{Crashes: []CrashWindow{{Host: 0, At: 10 * sim.Second, RecoverAt: 5 * sim.Second}}}},
		{"protected host", Plan{Crashes: []CrashWindow{{Host: 3, At: 1, RecoverAt: 2}}}},
		{"unknown host", Plan{Crashes: []CrashWindow{{Host: 9, At: 1, RecoverAt: 2}}}},
		{"overlapping windows", Plan{Crashes: []CrashWindow{
			{Host: 0, At: 0, RecoverAt: 10 * sim.Second},
			{Host: 0, At: 5 * sim.Second, RecoverAt: 20 * sim.Second},
		}}},
		{"bad probabilities", Plan{DropProb: 0.8, DupProb: 0.4}},
		{"negative probability", Plan{DropProb: -0.1}},
		{"outage ends early", Plan{Outages: []LinkOutage{{A: 0, B: 1, Start: 5 * sim.Second, End: 1 * sim.Second}}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(4, 3); err == nil {
			t.Errorf("%s: Validate accepted an invalid plan", c.name)
		}
	}
}

func TestInjectorCutDuring(t *testing.T) {
	// The 0<->1 outages are listed out of start order, and an outage of
	// another link (given with its endpoints reversed) overlaps them.
	pl := &Plan{Outages: []LinkOutage{
		{A: 0, B: 1, Start: 200 * sim.Second, End: 230 * sim.Second},
		{A: 3, B: 2, Start: 105 * sim.Second, End: 300 * sim.Second},
		{A: 0, B: 1, Start: 100 * sim.Second, End: 130 * sim.Second},
	}}
	in := NewInjector(pl, rand.New(rand.NewSource(1)))
	cases := []struct {
		from, until sim.Time
		wantAt      sim.Time
		wantOK      bool
	}{
		{0, 50 * sim.Second, 0, false},                               // before any outage
		{0, 110 * sim.Second, 100 * sim.Second, true},                // spans the start
		{110 * sim.Second, 120 * sim.Second, 110 * sim.Second, true}, // starts inside
		{140 * sim.Second, 190 * sim.Second, 0, false},               // between outages
		{150 * sim.Second, 400 * sim.Second, 200 * sim.Second, true}, // hits the second
		{300 * sim.Second, 400 * sim.Second, 0, false},               // after all
	}
	for i, c := range cases {
		at, ok := in.CutDuring(0, 1, c.from, c.until)
		if ok != c.wantOK || (ok && at != c.wantAt) {
			t.Errorf("case %d: CutDuring(%v,%v) = (%v,%v), want (%v,%v)",
				i, c.from, c.until, at, ok, c.wantAt, c.wantOK)
		}
		// Undirected: the reversed link behaves identically.
		rat, rok := in.CutDuring(1, 0, c.from, c.until)
		if rat != at || rok != ok {
			t.Errorf("case %d: CutDuring not symmetric", i)
		}
	}
	if at, ok := in.CutDuring(2, 3, 0, 110*sim.Second); !ok || at != 105*sim.Second {
		t.Errorf("CutDuring(2,3) = (%v,%v), want (105s,true)", at, ok)
	}
	if _, ok := in.CutDuring(0, 2, 0, 400*sim.Second); ok {
		t.Error("CutDuring cut a link with no outage")
	}
}

func TestInjectorFateFrequencies(t *testing.T) {
	pl := &Plan{DropProb: 0.3, DupProb: 0.2}
	in := NewInjector(pl, rand.New(rand.NewSource(5)))
	const n = 20000
	var drops, dups int
	for i := 0; i < n; i++ {
		switch in.Fate() {
		case netmodel.FateDrop:
			drops++
		case netmodel.FateDuplicate:
			dups++
		}
	}
	if f := float64(drops) / n; f < 0.27 || f > 0.33 {
		t.Errorf("drop frequency %.3f, want ~0.30", f)
	}
	if f := float64(dups) / n; f < 0.17 || f > 0.23 {
		t.Errorf("dup frequency %.3f, want ~0.20", f)
	}
	// A plan without drop or duplication consumes no randomness and always
	// delivers.
	inj2 := NewInjector(&Plan{}, rand.New(rand.NewSource(5)))
	for i := 0; i < 100; i++ {
		if inj2.Fate() != netmodel.FateDeliver {
			t.Fatal("lossless plan faulted")
		}
	}
	if got := inj2.rng.Int63(); got != rand.New(rand.NewSource(5)).Int63() {
		t.Error("Fate under a lossless plan consumed randomness")
	}
}

func TestInjectorSchedule(t *testing.T) {
	k := sim.NewKernel()
	pl := &Plan{Crashes: []CrashWindow{
		{Host: 1, At: 10 * sim.Second, RecoverAt: 25 * sim.Second},
		{Host: 2, At: 40 * sim.Second, RecoverAt: 50 * sim.Second},
	}}
	in := NewInjector(pl, rand.New(rand.NewSource(1)))
	type ev struct {
		host netmodel.HostID
		up   bool
		at   sim.Time
	}
	var log []ev
	in.Schedule(k,
		func(h netmodel.HostID) {
			if !in.HostDown(h) {
				t.Errorf("host %d not marked down inside onCrash", h)
			}
			log = append(log, ev{h, false, k.Now()})
		},
		func(h netmodel.HostID) {
			if in.HostDown(h) {
				t.Errorf("host %d still down inside onRecover", h)
			}
			log = append(log, ev{h, true, k.Now()})
		})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []ev{
		{1, false, 10 * sim.Second},
		{1, true, 25 * sim.Second},
		{2, false, 40 * sim.Second},
		{2, true, 50 * sim.Second},
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("crash schedule log = %+v, want %+v", log, want)
	}
	if in.CrashesFired() != 2 {
		t.Fatalf("CrashesFired = %d, want 2", in.CrashesFired())
	}
}
