package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"wadc/internal/analysis"
	"wadc/internal/faults"
	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
)

// multiFaults is the shared faulty mode for the multi-tenant suite: the same
// plan parameters the single-tenant determinism tests survive.
func multiFaults() faults.Config {
	return faults.Config{
		Crashes:      2,
		MeanDowntime: 90 * time.Second,
		DropProb:     0.05,
		DupProb:      0.02,
		LinkOutages:  1,
		Horizon:      20 * time.Minute,
	}
}

// idleSpecs builds n idle tenants with IDs starting at firstID: they arrive
// at time zero, combine nothing, and depart without sending a byte.
func idleSpecs(n int, firstID int32) []tenant.Spec {
	specs := make([]tenant.Spec, n)
	for i := range specs {
		specs[i] = tenant.Spec{
			ID: firstID + int32(i), Seed: int64(1000 + i),
			NumServers: 2, Algorithm: "download-all", Idle: true,
		}
	}
	return specs
}

// TestRunMultiIsolation is the isolation property: a tenant surrounded by
// idle neighbours must observe exactly the run it would have had alone.
// Per-iteration arrival times, moves/switches, re-instantiations and
// realized critical-path attribution must all be identical to a solo Run
// with the same seed — for every placement algorithm, fault-free, faulty,
// and with a crash that lands before the engine starts (during one-shot's
// initial placement on the funnel network).
func TestRunMultiIsolation(t *testing.T) {
	const seed = 21
	const servers = 4
	early := sim.Time(36247) * sim.Millisecond
	for _, alg := range []string{"download-all", "one-shot", "global", "local"} {
		for _, mode := range []struct {
			label string
			links LinkFn
			fc    faults.Config
		}{
			{"fault-free", constLinks(64 * 1024), faults.Config{}},
			{"faulty", constLinks(64 * 1024), multiFaults()},
			{"crash-before-start", funnelLinks(servers), faults.Config{Plan: &faults.Plan{
				Crashes: []faults.CrashWindow{{Host: 0, At: early, RecoverAt: early + 90*sim.Second}},
			}}},
		} {
			t.Run(alg+"/"+mode.label, func(t *testing.T) {
				period := 2 * time.Minute
				policy, err := NewPolicy(alg, PolicyOptions{Period: period, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				soloRec := telemetry.NewRecorder()
				solo, err := Run(RunConfig{
					Seed: seed, NumServers: servers, Shape: CompleteBinaryTree,
					Links: mode.links, Policy: policy,
					Workload: smallWorkload(8),
					Faults:   mode.fc,
					Observe:  Observe{Telemetry: telemetry.ModelOnly(soloRec)},
				})
				if err != nil {
					t.Fatalf("solo Run: %v", err)
				}

				// The active tenant pins the solo run's exact topology: servers
				// on hosts 0..3, client on host 4, same workload and policy
				// seeds. Five idle tenants join alongside it.
				active := tenant.Spec{
					ID: 1, Seed: seed, NumServers: servers, Iterations: 8,
					Algorithm: alg,
					Servers:   []netmodel.HostID{0, 1, 2, 3},
				}
				multiRec := telemetry.NewRecorder()
				multi, err := RunMulti(MultiConfig{
					Seed: seed, NumServers: servers,
					Links:    mode.links,
					Tenants:  append([]tenant.Spec{active}, idleSpecs(5, 2)...),
					Workload: smallWorkload(8),
					Period:   period,
					Faults:   mode.fc,
					Observe:  Observe{Telemetry: telemetry.ModelOnly(multiRec)},
				})
				if err != nil {
					t.Fatalf("RunMulti: %v", err)
				}
				if multi.Completed != 6 || multi.Aborted != 0 {
					t.Fatalf("completed=%d aborted=%d, want 6/0", multi.Completed, multi.Aborted)
				}
				if multi.PendingEvents != 0 {
					t.Errorf("teardown leaked %d pending kernel events", multi.PendingEvents)
				}

				at := multi.Tenants[0]
				if !at.Completed {
					t.Fatal("active tenant did not complete")
				}
				if !reflect.DeepEqual(solo.Arrivals, at.Result.Arrivals) {
					t.Errorf("per-iteration arrivals diverge from solo run:\n  solo=%v\n  multi=%v",
						solo.Arrivals, at.Result.Arrivals)
				}
				if solo.Moves != at.Result.Moves || solo.Switches != at.Result.Switches ||
					solo.Reinstantiations != at.Result.Reinstantiations {
					t.Errorf("relocation activity diverges: solo %d/%d/%d vs multi %d/%d/%d (moves/switches/re-instantiations)",
						solo.Moves, solo.Switches, solo.Reinstantiations,
						at.Result.Moves, at.Result.Switches, at.Result.Reinstantiations)
				}
				// Placement.Equal demands the same *Tree pointer; across two
				// runs only the node→host assignment is comparable.
				if !reflect.DeepEqual(solo.FinalPlacement.Locations(), at.FinalPlacement.Locations()) {
					t.Errorf("final placements diverge: solo=%v multi=%v",
						solo.FinalPlacement.Locations(), at.FinalPlacement.Locations())
				}

				// Critical-path attribution is computed from the tenant's own
				// sub-log and must match the solo log segment for segment.
				soloAttr := analysis.SummarizeAttribution(analysis.ExtractCritPaths(soloRec.Events()))
				multiAttr := analysis.SummarizeAttribution(analysis.ExtractCritPaths(
					analysis.FilterTenant(multiRec.Events(), active.ID)))
				if !reflect.DeepEqual(soloAttr, multiAttr) {
					t.Errorf("critical-path attribution diverges:\n  solo=%+v\n  multi=%+v",
						soloAttr, multiAttr)
				}

				// Decision records key by (Tenant, Seq): the active tenant's
				// decisions must replay the solo decision stream.
				soloDecs := analysis.ExtractDecisions(soloRec.Events())
				multiDecs := analysis.ExtractDecisions(
					analysis.FilterTenant(multiRec.Events(), active.ID))
				if len(soloDecs) != len(multiDecs) {
					t.Fatalf("decision counts diverge: solo %d vs multi %d", len(soloDecs), len(multiDecs))
				}
				for i := range soloDecs {
					a, b := soloDecs[i], multiDecs[i]
					b.Tenant = 0 // the tag itself is the only allowed difference
					if !reflect.DeepEqual(a, b) {
						t.Errorf("decision %d diverges:\n  solo=%+v\n  multi=%+v", i, a, b)
					}
				}
			})
		}
	}
}

// multiDigest runs cfg with a model-event recorder and metrics collection
// attached and renders both artifacts to bytes.
func multiDigest(t *testing.T, cfg MultiConfig) (MultiResult, []byte, []byte) {
	t.Helper()
	rec, col := telemetry.NewRecorder(), telemetry.NewCollector()
	cfg.Telemetry = telemetry.Multi(col, telemetry.ModelOnly(rec))
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	var csv bytes.Buffer
	if err := col.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return res, jsonlBytes(t, rec.Events()), csv.Bytes()
}

// TestRunMultiDeterminism: two same-seed 100-tenant runs under faults must
// produce byte-identical JSONL event logs and metrics CSVs, and identical
// per-tenant outcomes. The determinism contract does not bend with scale.
func TestRunMultiDeterminism(t *testing.T) {
	cfg := MultiConfig{
		Seed: 33, NumServers: 6,
		Links: constLinks(64 * 1024),
		Tenants: tenant.Population(tenant.PopulationConfig{
			N: 100, ArrivalRate: 2, Seed: 33, NumServers: 3, Iterations: 3,
		}),
		Workload: smallWorkload(3),
		Period:   2 * time.Minute,
		Faults:   multiFaults(),
	}
	a, jsonlA, csvA := multiDigest(t, cfg)
	b, jsonlB, csvB := multiDigest(t, cfg)

	if len(jsonlA) == 0 {
		t.Fatal("no telemetry captured")
	}
	if !bytes.Equal(jsonlA, jsonlB) {
		t.Errorf("JSONL event logs diverge: %d vs %d bytes", len(jsonlA), len(jsonlB))
	}
	if !bytes.Equal(csvA, csvB) {
		t.Errorf("metrics CSVs diverge:\n--- a ---\n%s\n--- b ---\n%s", csvA, csvB)
	}
	if a.Completed != b.Completed || a.Aborted != b.Aborted ||
		a.JainFairness != b.JainFairness || a.CrashesFired != b.CrashesFired {
		t.Errorf("aggregates diverge: %+v vs %+v", a, b)
	}
	for i := range a.Tenants {
		if !reflect.DeepEqual(a.Tenants[i], b.Tenants[i]) {
			t.Errorf("tenant %d outcomes diverge", a.Tenants[i].Spec.ID)
		}
	}
	if a.Completed+a.Aborted != 100 {
		t.Fatalf("completed=%d aborted=%d, want 100 total", a.Completed, a.Aborted)
	}
	if a.PendingEvents != 0 {
		t.Errorf("teardown leaked %d pending kernel events", a.PendingEvents)
	}
}

// TestRunMultiScale: one thousand concurrent query trees on one network.
// Every tenant must depart, teardown must drain the kernel queue to empty,
// and the cross-tenant statistics must be well-formed.
func TestRunMultiScale(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	res, err := RunMulti(MultiConfig{
		Seed: 7, NumServers: 8,
		Links: constLinks(256 * 1024),
		Tenants: tenant.Population(tenant.PopulationConfig{
			N: n, ArrivalRate: 20, Seed: 7, NumServers: 2, Iterations: 2,
		}),
		Workload: smallWorkload(2),
	})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if res.Completed != n {
		t.Fatalf("completed=%d aborted=%d, want %d/0", res.Completed, res.Aborted, n)
	}
	if res.PendingEvents != 0 {
		t.Errorf("teardown leaked %d pending kernel events", res.PendingEvents)
	}
	if res.JainFairness <= 0 || res.JainFairness > 1 {
		t.Errorf("Jain index out of range: %v", res.JainFairness)
	}
	if len(res.TenantTraffic) != n {
		t.Errorf("traffic accounted for %d tenants, want %d", len(res.TenantTraffic), n)
	}
	for _, tt := range res.TenantTraffic {
		if tt.Transfers == 0 || tt.Bytes == 0 {
			t.Fatalf("tenant %d moved no data: %+v", tt.Tenant, tt)
		}
	}
}

// TestRunMultiContention: tenants sharing links must show up in the
// per-link contention shares, and a link's tenant shares must sum to one.
func TestRunMultiContention(t *testing.T) {
	res, err := RunMulti(MultiConfig{
		Seed: 5, NumServers: 3,
		Links: constLinks(32 * 1024),
		Tenants: []tenant.Spec{
			{ID: 1, Seed: 11, NumServers: 3, Iterations: 4, Algorithm: "download-all",
				Servers: []netmodel.HostID{0, 1, 2}},
			{ID: 2, Seed: 12, NumServers: 3, Iterations: 4, Algorithm: "download-all",
				Servers: []netmodel.HostID{0, 1, 2}},
		},
		Workload: smallWorkload(4),
	})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed=%d, want 2", res.Completed)
	}
	if len(res.LinkShares) == 0 {
		t.Fatal("no link shares recorded")
	}
	sums := make(map[[2]netmodel.HostID]float64)
	tenantsOnLink := make(map[[2]netmodel.HostID]map[int32]bool)
	for _, ls := range res.LinkShares {
		key := [2]netmodel.HostID{ls.A, ls.B}
		sums[key] += ls.Share
		if tenantsOnLink[key] == nil {
			tenantsOnLink[key] = make(map[int32]bool)
		}
		tenantsOnLink[key][ls.Tenant] = true
	}
	for key, sum := range sums {
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("link %v shares sum to %v, want 1", key, sum)
		}
	}
	shared := false
	for _, tenants := range tenantsOnLink {
		if len(tenants) > 1 {
			shared = true
		}
	}
	if !shared {
		t.Error("identical topologies but no link shows multi-tenant contention")
	}
	if res.JainFairness < 0.5 {
		t.Errorf("identical tenants should split fairly, Jain=%v", res.JainFairness)
	}
}

// TestRunMultiValidation rejects malformed configurations up front; an
// unknown algorithm or shape name is reported with the tenant's ID.
func TestRunMultiValidation(t *testing.T) {
	base := MultiConfig{
		Seed: 1, NumServers: 4, Links: constLinks(1024),
		Workload: smallWorkload(2),
	}
	cases := []struct {
		name    string
		tenants []tenant.Spec
		want    string // substring of the error, if checked
	}{
		{"no tenants", nil, ""},
		{"duplicate IDs", []tenant.Spec{
			{ID: 1, Seed: 1, NumServers: 2, Iterations: 1, Algorithm: "one-shot"},
			{ID: 1, Seed: 2, NumServers: 2, Iterations: 1, Algorithm: "one-shot"},
		}, ""},
		{"zero ID", []tenant.Spec{
			{ID: 0, Seed: 1, NumServers: 2, Iterations: 1, Algorithm: "one-shot"},
		}, ""},
		{"unknown algorithm", []tenant.Spec{
			{ID: 1, Seed: 1, NumServers: 2, Iterations: 1, Algorithm: "mystery"},
		}, `tenant 1: core: unknown placement algorithm "mystery"`},
		{"unknown algorithm after a valid tenant", []tenant.Spec{
			{ID: 1, Seed: 1, NumServers: 2, Iterations: 1, Algorithm: "local"},
			{ID: 2, Seed: 2, NumServers: 2, Iterations: 1, Algorithm: "nope"},
		}, `tenant 2: core: unknown placement algorithm "nope"`},
		{"unknown shape", []tenant.Spec{
			{ID: 1, Seed: 1, NumServers: 2, Iterations: 1, Algorithm: "local", Shape: "star"},
		}, `tenant 1: core: unknown tree shape "star"`},
		{"oversubscribed pool", []tenant.Spec{
			{ID: 1, Seed: 1, NumServers: 9, Iterations: 1, Algorithm: "one-shot"},
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Tenants = tc.tenants
			_, err := RunMulti(cfg)
			if err == nil {
				t.Fatal("config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestRunMultiMixedShapesAndArrivals: staggered arrivals with heterogeneous
// tree shapes and policies all complete and report arrival-anchored
// latencies.
func TestRunMultiMixedShapesAndArrivals(t *testing.T) {
	specs := []tenant.Spec{
		{ID: 1, ArriveAt: 0, Seed: 11, NumServers: 4, Iterations: 4,
			Algorithm: "global", Shape: "binary"},
		{ID: 2, ArriveAt: 30 * 1e9, Seed: 12, NumServers: 3, Iterations: 4,
			Algorithm: "local", Shape: "left-deep"},
		{ID: 3, ArriveAt: 60 * 1e9, Seed: 13, NumServers: 3, Iterations: 4,
			Algorithm: "one-shot", Shape: "greedy"},
	}
	res, err := RunMulti(MultiConfig{
		Seed: 9, NumServers: 5,
		Links:    constLinks(64 * 1024),
		Tenants:  specs,
		Workload: smallWorkload(4),
		Period:   time.Minute,
	})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed=%d, want 3", res.Completed)
	}
	for i, tr := range res.Tenants {
		if tr.ArrivedAt != specs[i].ArriveAt {
			t.Errorf("tenant %d arrived at %v, want %v", tr.Spec.ID, tr.ArrivedAt, specs[i].ArriveAt)
		}
		if tr.DepartedAt <= tr.ArrivedAt {
			t.Errorf("tenant %d departed (%v) before arriving (%v)", tr.Spec.ID, tr.DepartedAt, tr.ArrivedAt)
		}
		if tr.Delivered != 4 {
			t.Errorf("tenant %d delivered %d iterations, want 4", tr.Spec.ID, tr.Delivered)
		}
		if tr.MeanLatency <= 0 || tr.Throughput <= 0 {
			t.Errorf("tenant %d has degenerate latency/throughput: %v / %v",
				tr.Spec.ID, tr.MeanLatency, tr.Throughput)
		}
	}
}
