// Package core is the top-level façade of the library: it assembles a
// complete simulated wide-area data-combination run — network, bandwidth
// traces, monitoring, workload, combination tree, placement policy, dataflow
// execution — and returns the measured outcome.
//
// A run reproduces one cell of the paper's evaluation: one network
// configuration (an assignment of bandwidth traces to the links of the
// complete graph over servers + client), one combination order, and one
// placement algorithm. It is the one-tenant case of a multi-tenant run:
// Run and RunMulti share one assembly path.
package core

import (
	"fmt"

	"wadc/internal/dataflow"
	"wadc/internal/faults"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// TreeShape selects the combination order.
type TreeShape int

// Combination orders evaluated in the paper.
const (
	// CompleteBinaryTree is the maximally bushy order of the main
	// experiments.
	CompleteBinaryTree TreeShape = iota
	// LeftDeepTree is the linear order common in database query plans
	// (Figure 5 / Figure 10).
	LeftDeepTree
	// GreedyBandwidthTree orders the combination by greedily pairing the
	// best-connected servers first, using planning-time bandwidth knowledge
	// (an extension beyond the paper's two fixed orders).
	GreedyBandwidthTree
)

// String implements fmt.Stringer.
func (s TreeShape) String() string {
	switch s {
	case LeftDeepTree:
		return "left-deep"
	case GreedyBandwidthTree:
		return "greedy-bandwidth"
	default:
		return "complete-binary"
	}
}

// Build returns the tree for n servers.
func (s TreeShape) Build(n int) *plan.Tree {
	if s == LeftDeepTree {
		return plan.LeftDeep(n)
	}
	return plan.CompleteBinary(n)
}

// LinkFn supplies the bandwidth trace for each (undirected) host pair.
type LinkFn func(a, b netmodel.HostID) *trace.Trace

// Observe selects a run's observers; the zero value attaches none. Every
// observer is purely observational: a run with any of them attached
// simulates exactly what the same run without them does. Allocation
// profiling brackets a call from the outside instead: wrap Run or RunMulti
// in obs.StartAllocCapture and Finish.
type Observe struct {
	// Telemetry receives every structured simulation event (kernel
	// scheduling, transfers, demands, relocations, barriers, faults), each
	// tagged with the tenant of the process that emitted it. Pass a
	// *telemetry.Collector here (alone or through telemetry.Multi) to derive
	// metrics, and write them with its WriteCSV after the run.
	Telemetry telemetry.Sink
	// Perf attaches a host-process performance recorder: the kernel
	// attributes wall time per subsystem, counts events and transfers, and
	// pprof-labels process coroutines. The run finalizes it into the
	// result's Perf.
	Perf *obs.Recorder
	// Estimates attaches one estimator-accuracy tracker, shared by all
	// tenants: every bandwidth estimate a placement decision consumes is
	// joined to the ground truth the network delivered over the estimate's
	// validity window and emitted as estimate-used / regime-detected
	// telemetry. It has no effect without a Telemetry sink.
	Estimates bool
}

// RunConfig describes one simulation run.
type RunConfig struct {
	// Seed seeds the run's workload and, unless Faults sets its own seed,
	// the fault plan and the injector's stream.
	Seed int64
	// NumServers is the number of data sources (the client is one more
	// host).
	NumServers int
	// Shape is the combination order.
	Shape TreeShape
	// Links assigns a bandwidth trace to every host pair; hosts 0..N-1 are
	// the servers and host N is the client.
	Links LinkFn
	// Policy is the placement algorithm under test.
	Policy placement.Policy
	// Workload configures the image sequences (paper defaults if zero).
	Workload workload.Config
	// Monitor configures the monitoring subsystem (paper defaults if zero).
	Monitor monitor.Config
	// Iterations overrides the number of partitions (default: full
	// sequences).
	Iterations int
	// FlatPriorities disables message-priority queueing in the network — the
	// ablation of the paper's barrier-priority design point (§2.2).
	FlatPriorities bool
	// Faults configures deterministic fault injection (host crashes, message
	// drop/duplication, link blackouts). The zero value disables it entirely
	// and the run is byte-identical to one before fault injection existed.
	// The client host is never crashed.
	Faults faults.Config
	// Observe attaches the run's observers (none by default).
	Observe
}

// Shared summarises what a run's tenants share — the monitor, the network,
// the fault injector and the kernel — and the observers' reports.
type Shared struct {
	// Probes and PassiveMeasurements summarise monitoring activity.
	Probes              int64
	PassiveMeasurements int64
	CacheHitRate        float64
	// NetworkTransfers and BytesMoved summarise network load.
	NetworkTransfers int64
	BytesMoved       int64
	// Fault-injection accounting (all zero when Faults is unset).
	CrashesFired       int
	MessagesDropped    int64
	MessagesDuplicated int64
	TransfersCut       int64
	// KernelEvents is the total number of events the kernel scheduled —
	// the denominator for events/sec throughput, maintained whether or
	// not a perf recorder is attached.
	KernelEvents int64
	// Perf is the finalized host-process performance report (nil unless
	// Observe.Perf was set).
	Perf *obs.Report
}

// RunResult is the outcome of one run.
type RunResult struct {
	dataflow.Result
	// Algorithm is the policy name.
	Algorithm string
	// InitialPlacement and FinalPlacement bracket the run.
	InitialPlacement *plan.Placement
	FinalPlacement   *plan.Placement
	// Decisions summarises the policy's placement-decision activity
	// (zero for policies that keep no stats, e.g. download-all and the
	// stateless one-shot value).
	Decisions placement.DecisionStats
	Shared
}

// Run executes one complete simulation and returns its result. The run is
// tenant 0 of a one-tenant RunMulti: servers on hosts 0..N-1, arriving at
// time zero, with the legacy unprefixed process and port names.
func Run(cfg RunConfig) (RunResult, error) {
	shared := MultiConfig{
		Seed: cfg.Seed, NumServers: cfg.NumServers, Links: cfg.Links,
		Workload: cfg.Workload, Monitor: cfg.Monitor, Faults: cfg.Faults,
		FlatPriorities: cfg.FlatPriorities, Observe: cfg.Observe,
	}
	if err := shared.validate(); err != nil {
		return RunResult{}, err
	}
	if cfg.Policy == nil {
		return RunResult{}, fmt.Errorf("core: Policy is required")
	}
	servers, _ := plan.DefaultHostAssignment(cfg.NumServers)
	solo := &tenantRun{
		spec: tenant.Spec{
			Seed: cfg.Seed, NumServers: cfg.NumServers, Iterations: cfg.Iterations,
			Algorithm: cfg.Policy.Name(), Servers: servers,
		},
		shape: cfg.Shape, policy: cfg.Policy,
	}
	m, err := simulate(shared, []*tenantRun{solo})
	if err != nil {
		return RunResult{}, err
	}
	t := m.Tenants[0]
	if !t.Completed {
		return RunResult{}, fmt.Errorf("core: run did not complete")
	}
	return RunResult{
		Result:           t.Result,
		Algorithm:        cfg.Policy.Name(),
		InitialPlacement: t.InitialPlacement,
		FinalPlacement:   t.FinalPlacement,
		Decisions:        t.Decisions,
		Shared:           m.Shared,
	}, nil
}
