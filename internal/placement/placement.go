// Package placement implements the paper's contribution: the three
// bandwidth-adaptive operator placement algorithms, plus the download-all
// baseline.
//
//   - DownloadAll: every operator at the client (the dominant mode of
//     wide-area data combination, the paper's base case).
//   - OneShot: run once at start-up; iteratively shortens the critical path
//     by relocating operators on it (§2.1).
//   - Global: re-runs the one-shot optimiser periodically from the current
//     placement at the client and coordinates change-overs with an
//     iteration-numbered barrier (§2.2).
//   - Local: fully distributed; each operator decides from local information
//     whether it is on the critical path and greedily improves its local
//     critical path, with staggered epochs per tree level and optional extra
//     random candidate locations (§2.3).
package placement

import (
	"math/rand"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/estacc"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// DefaultPeriod is the paper's main-experiment relocation period: "the
// online placement algorithms (global and local) were run once every 10
// minutes".
const DefaultPeriod = 10 * time.Minute

// Instance is one problem instance: the network, its monitoring system, the
// combination tree and the fixed host assignment for servers and client.
type Instance struct {
	Net         *netmodel.Network
	Mon         *monitor.System
	Tree        *plan.Tree
	ServerHosts []netmodel.HostID
	ClientHost  netmodel.HostID
	// Hosts are the candidate operator sites ("servers can host
	// computation"): all server hosts plus the client.
	Hosts []netmodel.HostID
	Model plan.CostModel
	// Acc, when set, is the estimator-accuracy tracker: every estimate a
	// snapshot serves to an optimiser is joined to ground truth and emitted
	// as estimator telemetry. Nil (the default) records nothing.
	Acc *estacc.Tracker

	// eval scores every optimiser decision on this instance: its tree and
	// candidate hosts never change, so each decision only resets it to its
	// bandwidth snapshot.
	eval *plan.Evaluator
}

// NewInstance derives the candidate host set from the server/client layout.
func NewInstance(net *netmodel.Network, mon *monitor.System, tree *plan.Tree,
	serverHosts []netmodel.HostID, clientHost netmodel.HostID, model plan.CostModel) *Instance {
	hosts := make([]netmodel.HostID, 0, len(serverHosts)+1)
	seen := make(map[netmodel.HostID]bool)
	for _, h := range serverHosts {
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	if !seen[clientHost] {
		hosts = append(hosts, clientHost)
	}
	x := &Instance{
		Net: net, Mon: mon, Tree: tree,
		ServerHosts: serverHosts, ClientHost: clientHost,
		Hosts: hosts, Model: model,
	}
	x.eval = model.NewEvaluator(x.DownloadAllPlacement(), hosts, nil)
	return x
}

// DownloadAllPlacement returns the baseline placement (Figure 1).
func (x *Instance) DownloadAllPlacement() *plan.Placement {
	return plan.NewPlacement(x.Tree, x.ServerHosts, x.ClientHost)
}

// AuditedSnapshotBW returns a memoised BandwidthFn over the monitoring
// system: each distinct link is estimated at most once per snapshot, so one
// optimisation pass sees a consistent view and pays for each unknown link
// once. viewer is the host whose cache answers lookups; p is the process
// charged for any on-demand probes. The first lookup of each distinct link
// also records the served value — and its provenance (probe, fresh-cache,
// piggyback, stale-fallback, local) — as a decision-bandwidth event on the
// open decision record d, and joins it to ground truth through the
// instance's estimator-accuracy tracker (if any). A zero d attributes the
// estimates to decision 0.
//
// The memo is one dense table per snapshot with a slot for every pair of
// the network's hosts (netmodel.PairIndex). Every snapshot gets its own,
// because local decisions on one instance can be open at the same time.
func (x *Instance) AuditedSnapshotBW(p *sim.Proc, viewer netmodel.HostID, d Decision) plan.BandwidthFn {
	type estimate struct {
		bw    trace.Bandwidth
		known bool
	}
	n := x.Net.NumHosts()
	memo := make([]estimate, n*(n+1)/2)
	return func(a, b netmodel.HostID) trace.Bandwidth {
		lo, hi := min(a, b), max(a, b)
		m := &memo[netmodel.PairIndex(lo, hi)]
		if m.known {
			return m.bw
		}
		v, info := x.Mon.EstimateDetail(p, viewer, a, b)
		d.Bandwidth(lo, hi, float64(v), info.Prov)
		x.Acc.Consumed(viewer, lo, hi, v, info, d.Seq(), d.Alg())
		*m = estimate{bw: v, known: true}
		return v
	}
}

// Policy is a placement algorithm's lifecycle against one instance: an
// initial placement computed before the computation starts, and optional
// runtime behaviour attached to the dataflow engine.
type Policy interface {
	// Name identifies the algorithm ("download-all", "one-shot", "global",
	// "local").
	Name() string
	// InitialPlacement runs in process p (so on-demand probes advance
	// simulated time) and returns the starting placement.
	InitialPlacement(p *sim.Proc, x *Instance) *plan.Placement
	// Attach installs the policy's runtime behaviour (periodic re-placement,
	// window hooks) on the engine. Called after the engine is built, before
	// Start.
	Attach(x *Instance, e *dataflow.Engine)
}

// rngFor derives a deterministic sub-generator.
func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + salt))
}
