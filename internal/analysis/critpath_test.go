package analysis

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wadc/internal/core"
	"wadc/internal/faults"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// syntheticChain is a hand-built causal log: server node 0 (host 0) reads
// and serves, one transfer to operator node 2 (host 1), which composes and
// serves, one transfer to the client (host 2). Every phase boundary is
// chosen by hand so the expected attribution is exact.
func syntheticChain() []telemetry.Event {
	return []telemetry.Event{
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 0, Host: 0, Aux: "server"},
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 2, Host: 1, Aux: "operator"},
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 3, Host: 2, Aux: "client"},
		// Client demands the root operator: anchors the walk at node 2.
		{Kind: telemetry.KindDemandSent, At: 0, Node: 2, Host: 2, Peer: 1},
		// Server: read [50,100], buffered idle [100,120], dispatch at 120.
		{Kind: telemetry.KindSourceRead, At: 100, Node: 0, Host: 0, Bytes: 100, Dur: 50},
		{Kind: telemetry.KindDataServed, At: 120, Node: 0, Host: 0, Peer: 1, Bytes: 100, Wait: 20},
		// Hop 1: queue [120,130], startup [130,160], payload [160,220].
		{Kind: telemetry.KindTransferEnd, At: 220, Host: 0, Peer: 1, Bytes: 100, Dur: 90, Wait: 10, Startup: 30},
		// Operator: gated at 220, CPU queue [220,225], compute [225,265].
		{Kind: telemetry.KindComposeGated, At: 220, Node: 2, Host: 1, Peer: 0, Bytes: 100, Dur: 220},
		{Kind: telemetry.KindOperatorFired, At: 265, Node: 2, Host: 1, Dur: 40, Wait: 5},
		// Buffered idle [265,280], dispatch at 280.
		{Kind: telemetry.KindDataServed, At: 280, Node: 2, Host: 1, Peer: 2, Bytes: 100, Wait: 15},
		// Hop 2: queue [280,300], startup [300,330], payload [330,400].
		{Kind: telemetry.KindTransferEnd, At: 400, Host: 1, Peer: 2, Bytes: 100, Dur: 100, Wait: 20, Startup: 30},
		{Kind: telemetry.KindImageArrived, At: 400, Host: 2, Bytes: 100},
	}
}

func TestCritPathSyntheticChain(t *testing.T) {
	paths := ExtractCritPaths(syntheticChain())
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Latency != 400 {
		t.Fatalf("latency = %d, want 400", p.Latency)
	}
	want := [catCount]int64{
		CatQueue:   10 + 5 + 20,  // NIC hop1 + CPU queue + NIC hop2
		CatStartup: 30 + 30,      // both hops
		CatPayload: 60 + 70,      // hop1 [160,220], hop2 [330,400]
		CatCompute: 50 + 40,      // disk read + compose
		CatIdle:    50 + 20 + 15, // pre-read cascade + two buffered waits
	}
	if p.ByCat != want {
		t.Errorf("attribution = %v, want %v", p.ByCat, want)
	}
	if p.Hops != 2 {
		t.Errorf("hops = %d, want 2", p.Hops)
	}
	if len(p.Nodes) != 2 || p.Nodes[0] != 2 || p.Nodes[1] != 0 {
		t.Errorf("nodes = %v, want [2 0]", p.Nodes)
	}
	assertTiles(t, p)
	// idle h0 (50+20) ties payload h1→h2 (70); the deterministic tie-break
	// keeps the lexicographically first place.
	if bn, share := p.Bottleneck(); bn != "idle h0" || share != 70.0/400 {
		t.Errorf("bottleneck = %q %.3f, want idle h0 0.175", bn, share)
	}
}

// TestCritPathResidualIdle: a log with an arrival but no reconstructable
// chain must still yield a path — fully attributed to idle, summing to the
// latency.
func TestCritPathResidualIdle(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.KindImageArrived, At: 1000, Host: 2},
		{Kind: telemetry.KindImageArrived, At: 1700, Host: 2, Iter: 1},
	}
	paths := ExtractCritPaths(events)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for i, p := range paths {
		if p.ByCat[CatIdle] != p.Latency {
			t.Errorf("path %d: idle = %d, want full latency %d", i, p.ByCat[CatIdle], p.Latency)
		}
		assertTiles(t, p)
	}
	if paths[1].Latency != 700 {
		t.Errorf("second latency = %d, want 700", paths[1].Latency)
	}
}

// assertTiles checks the structural invariant the walker guarantees: the
// segments are chronological, contiguous, and tile the iteration window
// exactly, so the category totals sum to the latency.
func assertTiles(t *testing.T, p IterationPath) {
	t.Helper()
	var sum int64
	for c := PathCategory(0); c < catCount; c++ {
		sum += p.ByCat[c]
	}
	if sum != p.Latency {
		t.Errorf("iter %d: components sum to %d, latency is %d", p.Iter, sum, p.Latency)
	}
	if len(p.Segments) == 0 {
		if p.Latency != 0 {
			t.Errorf("iter %d: no segments but latency %d", p.Iter, p.Latency)
		}
		return
	}
	if last := p.Segments[len(p.Segments)-1]; last.To != p.Arrival {
		t.Errorf("iter %d: last segment ends at %d, arrival is %d", p.Iter, last.To, p.Arrival)
	}
	if first := p.Segments[0]; first.From != p.Arrival-p.Latency {
		t.Errorf("iter %d: first segment starts at %d, window starts at %d",
			p.Iter, first.From, p.Arrival-p.Latency)
	}
	for i, s := range p.Segments {
		if s.To <= s.From {
			t.Errorf("iter %d: empty or inverted segment %+v", p.Iter, s)
		}
		if i > 0 && s.From != p.Segments[i-1].To {
			t.Errorf("iter %d: gap between segment %d (ends %d) and %d (starts %d)",
				p.Iter, i-1, p.Segments[i-1].To, i, s.From)
		}
	}
}

// critRun executes one instrumented run (optionally faulty) against the
// study-pool link assignment and returns its model-level event log.
func critRun(t *testing.T, p placement.Policy, seed int64, fc faults.Config) []telemetry.Event {
	t.Helper()
	pool := trace.NewStudyPool(seed)
	rng := rand.New(rand.NewSource(seed))
	linkMap := map[[2]netmodel.HostID]*trace.Trace{}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			linkMap[[2]netmodel.HostID{netmodel.HostID(a), netmodel.HostID(b)}] = pool.Pick(rng)
		}
	}
	linkAt := func(a, b netmodel.HostID) *trace.Trace {
		if a > b {
			a, b = b, a
		}
		return linkMap[[2]netmodel.HostID{a, b}]
	}
	rec := &telemetry.Recorder{}
	_, err := core.Run(core.RunConfig{
		Seed: seed, NumServers: 4, Shape: core.CompleteBinaryTree,
		Links: linkAt, Policy: p,
		Workload: workload.Config{ImagesPerServer: 40, MeanBytes: 128 * 1024, SpreadFrac: 0.25},
		Faults:   fc,
		Observe:  core.Observe{Telemetry: telemetry.ModelOnly(rec)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// TestAttributionSumsToLatency is the acceptance property: on every
// algorithm, fault-free and faulty, every image-arrived event gets a
// realized critical path whose attribution components sum EXACTLY to the
// client-observed latency.
func TestAttributionSumsToLatency(t *testing.T) {
	faulty := faults.Config{
		Crashes:      2,
		MeanDowntime: 90 * time.Second,
		DropProb:     0.05,
		DupProb:      0.02,
		LinkOutages:  1,
		Horizon:      20 * time.Minute,
	}
	policies := map[string]func() placement.Policy{
		"download-all": func() placement.Policy { return placement.DownloadAll{} },
		"one-shot":     func() placement.Policy { return placement.OneShot{} },
		"global":       func() placement.Policy { return &placement.Global{Period: 5 * time.Minute} },
		"local":        func() placement.Policy { return &placement.Local{Period: 5 * time.Minute, Extra: 2, Seed: 3} },
	}
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	for _, name := range names {
		mk := policies[name]
		for _, mode := range []struct {
			label string
			fc    faults.Config
		}{
			{"fault-free", faults.Config{}},
			{"faulty", faulty},
		} {
			t.Run(name+"/"+mode.label, func(t *testing.T) {
				events := critRun(t, mk(), 7, mode.fc)
				arrivals := 0
				for _, ev := range events {
					if ev.Kind == telemetry.KindImageArrived {
						arrivals++
					}
				}
				paths := ExtractCritPaths(events)
				if len(paths) != arrivals || arrivals == 0 {
					t.Fatalf("%d paths for %d arrivals", len(paths), arrivals)
				}
				attributed := int64(0)
				for _, p := range paths {
					assertTiles(t, p)
					attributed += p.Latency - p.ByCat[CatIdle]
				}
				if attributed == 0 {
					t.Error("no path attributed any non-idle time; the walk never matched an event")
				}
			})
		}
	}
}

// TestCritPathReportByteIdentical: two same-seed runs must render the exact
// same critpath report — the determinism acceptance check for the analysis
// pass itself.
func TestCritPathReportByteIdentical(t *testing.T) {
	render := func() string {
		events := critRun(t, &placement.Global{Period: 5 * time.Minute}, 3, faults.Config{})
		paths := ExtractCritPaths(events)
		cmps := ComparePredictions(Attribute(ExtractDecisions(events), events), paths, events)
		return FormatCritPathSummary(paths) + FormatCritPathTable(paths) + FormatPathComparisons(cmps)
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same-seed critpath reports differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestCritPathReportGolden pins the `simscope critpath` report for a seeded
// global run (regenerate with -update).
func TestCritPathReportGolden(t *testing.T) {
	events := critRun(t, &placement.Global{Period: 5 * time.Minute}, 3, faults.Config{})
	paths := ExtractCritPaths(events)
	cmps := ComparePredictions(Attribute(ExtractDecisions(events), events), paths, events)
	out := FormatCritPathSummary(paths) + FormatCritPathTable(paths) + FormatPathComparisons(cmps)

	golden := filepath.Join("testdata", "critpath_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if out != string(want) {
		t.Errorf("critpath report drifted from golden.\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestWriteCritPathCSV(t *testing.T) {
	paths := ExtractCritPaths(syntheticChain())
	var sb strings.Builder
	if err := WriteCritPathCSV(&sb, paths); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row:\n%s", len(lines), sb.String())
	}
	if lines[0] != "iter,arrival_s,latency_s,queue_s,startup_s,payload_s,compute_s,idle_s,hops,bottleneck,path" {
		t.Errorf("header = %q", lines[0])
	}
	row := strings.Split(lines[1], ",")
	if len(row) != 11 {
		t.Fatalf("row has %d fields: %q", len(row), lines[1])
	}
	if row[0] != "0" || row[8] != "2" || row[10] != "2→0" {
		t.Errorf("row = %q", lines[1])
	}
}
