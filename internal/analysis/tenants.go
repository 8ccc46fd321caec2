package analysis

import (
	"fmt"
	"sort"
	"strings"

	"wadc/internal/metrics"
	"wadc/internal/telemetry"
)

// FilterTenant returns the sub-log of events tagged with tenant t, in log
// order. Critical-path extraction on a multi-tenant log must run on one
// tenant's sub-log at a time: node IDs and iteration numbers are per-tenant
// namespaces, so mixing tenants would alias unrelated operators.
func FilterTenant(events []telemetry.Event, t int32) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range events {
		if ev.Tenant == t {
			out = append(out, ev)
		}
	}
	return out
}

// SplitByTenant partitions a log into per-tenant sub-logs, each in log
// order. Tenant 0 holds shared infrastructure: kernel bookkeeping and fault
// injection.
func SplitByTenant(events []telemetry.Event) map[int32][]telemetry.Event {
	out := make(map[int32][]telemetry.Event)
	for _, ev := range events {
		out[ev.Tenant] = append(out[ev.Tenant], ev)
	}
	return out
}

// TenantCritPathSummary aggregates one tenant's realized critical paths:
// iteration latency percentiles and the per-category attribution shares.
type TenantCritPathSummary struct {
	Tenant  int32
	Iters   int
	TotalNs int64
	P50Ns   int64
	P95Ns   int64
	ByCat   [catCount]int64
}

// Share returns category c's fraction of the tenant's total attributed time.
func (s TenantCritPathSummary) Share(c PathCategory) float64 {
	if s.TotalNs <= 0 {
		return 0
	}
	return float64(s.ByCat[c]) / float64(s.TotalNs)
}

// SummarizeTenantCritPaths reconstructs every tenant's realized critical
// paths from a multi-tenant log (each on its own sub-log, since node and
// iteration namespaces are per-tenant) and aggregates latency percentiles
// and attribution per tenant, ascending by ID. Tenants with no image
// arrivals — including the shared-infrastructure tenant 0 of a multi-tenant
// run — are omitted.
func SummarizeTenantCritPaths(events []telemetry.Event) []TenantCritPathSummary {
	byTenant := SplitByTenant(events)
	ids := make([]int32, 0, len(byTenant))
	for id := range byTenant {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []TenantCritPathSummary
	for _, id := range ids {
		paths := ExtractCritPaths(byTenant[id])
		if len(paths) == 0 {
			continue
		}
		s := TenantCritPathSummary{Tenant: id, Iters: len(paths)}
		lats := make([]float64, len(paths))
		for i, p := range paths {
			s.TotalNs += p.Latency
			lats[i] = float64(p.Latency)
			for c := PathCategory(0); c < catCount; c++ {
				s.ByCat[c] += p.ByCat[c]
			}
		}
		s.P50Ns = int64(metrics.Percentile(lats, 50))
		s.P95Ns = int64(metrics.Percentile(lats, 95))
		out = append(out, s)
	}
	return out
}

// FormatTenantCritPathTable renders the per-tenant aggregation printed by
// `simscope critpath` on multi-tenant logs: latency percentiles plus the
// attribution share of each category.
func FormatTenantCritPathTable(sums []TenantCritPathSummary) string {
	var sb strings.Builder
	sb.WriteString("per-tenant realized critical paths:\n")
	sb.WriteString("  tenant  iters  p50-lat(s)  p95-lat(s)  queue  start  payld  compute  idle\n")
	for _, s := range sums {
		fmt.Fprintf(&sb, "  t%-5d  %5d  %10.3f  %10.3f  %4.0f%%  %4.0f%%  %4.0f%%  %6.0f%%  %3.0f%%\n",
			s.Tenant, s.Iters, secs(s.P50Ns), secs(s.P95Ns),
			100*s.Share(CatQueue), 100*s.Share(CatStartup), 100*s.Share(CatPayload),
			100*s.Share(CatCompute), 100*s.Share(CatIdle))
	}
	return sb.String()
}
