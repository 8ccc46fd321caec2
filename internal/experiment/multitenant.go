package experiment

import (
	"fmt"
	"strings"

	"wadc/internal/core"
	"wadc/internal/metrics"
	"wadc/internal/tenant"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// ---------------------------------------------------------------------------
// Multi-tenant figure (extension) — the paper evaluates one query at a time;
// this sweep asks what happens when the network is shared: N concurrent
// query trees (the standard four-policy mix) arrive open-loop on one
// wide-area network and contend for its links. Reported per tenant count:
// completion, mean per-iteration latency, Jain's fairness index on iteration
// throughput, and how contended the links were.
// ---------------------------------------------------------------------------

// DefaultTenantCounts is the tenant-count sweep when none is given.
var DefaultTenantCounts = []int{1, 10, 100, 1000}

// MultiTenantResult holds the sweep: one row per tenant count.
type MultiTenantResult struct {
	Opts   Options
	Counts []int
	// Per count: outcome totals and cross-tenant statistics.
	Completed []int
	Aborted   []int
	// MeanLatency[i] is the mean of per-tenant mean iteration latencies (s).
	MeanLatency []float64
	// P95Latency[i] is the 95th percentile of per-tenant mean latencies (s).
	P95Latency []float64
	// Fairness[i] is Jain's index over the tenants' iteration throughputs.
	Fairness []float64
	// SharedLinkFrac[i] is the fraction of (link, tenant) occupancy shares
	// below 1 — how much of the traffic ran on contended links.
	SharedLinkFrac []float64
	// Transfers[i] and BytesMoved[i] aggregate the shared network.
	Transfers  []int64
	BytesMoved []int64
}

// MultiTenant runs the tenant-count sweep on the first network configuration
// of the options' seed. Per-tenant work is capped (ten iterations of small
// images per tenant) so the thousand-tenant point stays tractable; the
// interesting variable is the tenant count, not each tenant's length.
func MultiTenant(o Options, counts []int) (*MultiTenantResult, error) {
	o = o.withDefaults()
	if len(counts) == 0 {
		counts = DefaultTenantCounts
	}
	iters := o.Iterations
	if iters > 10 {
		iters = 10
	}
	perTenantServers := 3
	if o.Servers < perTenantServers {
		perTenantServers = o.Servers
	}
	pool := trace.NewStudyPool(o.Seed)
	assignment := GenerateAssignments(pool, 1, o.Servers, o.Seed)[0]

	r := &MultiTenantResult{Opts: o, Counts: counts}
	for _, n := range counts {
		specs := tenant.Population(tenant.PopulationConfig{
			N:           n,
			ArrivalRate: float64(n) / 600, // the population arrives over ~10 min
			Seed:        o.Seed,
			NumServers:  perTenantServers,
			Iterations:  iters,
		})
		res, err := core.RunMulti(core.MultiConfig{
			Seed:       o.Seed,
			NumServers: o.Servers,
			Links:      assignment.LinkFn(),
			Tenants:    specs,
			Workload: workload.Config{
				ImagesPerServer: iters,
				MeanBytes:       workload.DefaultMeanBytes,
				SpreadFrac:      workload.DefaultSpreadFrac,
			},
			Period: o.Period,
			Faults: o.Faults,
		})
		if err != nil {
			return nil, fmt.Errorf("multitenant n=%d: %w", n, err)
		}
		var lats, tputs []float64
		for _, tr := range res.Tenants {
			if tr.Completed && tr.Delivered > 0 {
				lats = append(lats, tr.MeanLatency.Seconds())
				tputs = append(tputs, tr.Throughput)
			}
		}
		shared := 0
		for _, ls := range res.LinkShares {
			if ls.Share < 1 {
				shared++
			}
		}
		frac := 0.0
		if len(res.LinkShares) > 0 {
			frac = float64(shared) / float64(len(res.LinkShares))
		}
		r.Completed = append(r.Completed, res.Completed)
		r.Aborted = append(r.Aborted, res.Aborted)
		r.MeanLatency = append(r.MeanLatency, metrics.Mean(lats))
		r.P95Latency = append(r.P95Latency, metrics.Percentile(lats, 95))
		r.Fairness = append(r.Fairness, res.JainFairness)
		r.SharedLinkFrac = append(r.SharedLinkFrac, frac)
		r.Transfers = append(r.Transfers, res.NetworkTransfers)
		r.BytesMoved = append(r.BytesMoved, res.BytesMoved)
	}
	return r, nil
}

// Render prints the sweep: one row per tenant count.
func (r *MultiTenantResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Multi-tenant contention — %d shared hosts, four-policy mix, open-loop arrivals\n",
		r.Opts.Servers)
	tbl := metrics.NewTable("tenants", "completed", "aborted", "mean-lat-s", "p95-lat-s",
		"jain", "shared-links", "transfers", "MB")
	for i, n := range r.Counts {
		tbl.AddRow(n, r.Completed[i], r.Aborted[i],
			r.MeanLatency[i], r.P95Latency[i],
			r.Fairness[i], fmt.Sprintf("%.0f%%", r.SharedLinkFrac[i]*100),
			r.Transfers[i], float64(r.BytesMoved[i])/(1<<20))
	}
	sb.WriteString(tbl.String())
	sb.WriteString("  jain is Jain's fairness index on per-tenant iteration throughput (1 = equal shares).\n")
	return sb.String()
}
