package core

import (
	"fmt"
	"math/rand"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/estacc"
	"wadc/internal/faults"
	"wadc/internal/metrics"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/workload"
)

// MultiConfig describes a multi-tenant simulation: N independent client
// queries — each with its own combination tree, placement policy and
// iteration clock — contending for one shared network. Hosts 0..NumServers-1
// form the shared server pool; host NumServers is the shared user site where
// every tenant's client runs (and which fault plans protect).
type MultiConfig struct {
	// Seed seeds the fault plan and the injector's stream unless Faults
	// sets its own seed. Every tenant draws its workload and placement
	// randomness from its own Spec.Seed; the kernel draws none.
	Seed int64
	// NumServers is the size of the shared server-host pool.
	NumServers int
	// Links assigns a bandwidth trace to every host pair of the pool + the
	// client host.
	Links LinkFn
	// Tenants is the arrival-ordered population (tenant.Population or
	// hand-built). Tenant IDs must be unique and positive.
	Tenants []tenant.Spec
	// Workload configures every tenant's image sequences (each tenant draws
	// its own sequences from its private seed).
	Workload workload.Config
	// Monitor configures the shared monitoring subsystem.
	Monitor monitor.Config
	// Period is the relocation period for tenants running on-line policies
	// (package defaults if zero).
	Period time.Duration
	// Faults configures shared fault injection. The plan is scheduled once
	// and its crash/recover windows fan out to every live tenant engine; an
	// engine that starts while a host is down learns of that crash as it
	// starts. The client host is protected, so no tenant loses its client.
	Faults faults.Config
	// FlatPriorities disables message-priority queueing network-wide.
	FlatPriorities bool
	// Observe attaches the run's observers (none by default).
	Observe
}

// TenantResult is one tenant's outcome within a multi-tenant run.
type TenantResult struct {
	Spec       tenant.Spec
	Completed  bool
	Aborted    bool
	ArrivedAt  sim.Time
	DepartedAt sim.Time
	// Delivered is the number of iterations the client received.
	Delivered int
	// Residence is DepartedAt - ArrivedAt.
	Residence time.Duration
	// MeanLatency is Residence / Delivered: the tenant's own mean
	// per-iteration latency, measured from its arrival (unlike
	// dataflow.Result.MeanInterarrival, which is anchored at time zero).
	MeanLatency time.Duration
	// Throughput is Delivered per simulated second of residence — the
	// allocation Jain's index is computed over.
	Throughput float64
	// Result is the tenant's dataflow summary (zero value if it aborted).
	Result dataflow.Result
	// Decisions summarises the tenant policy's placement-decision activity.
	Decisions placement.DecisionStats
	// InitialPlacement and FinalPlacement bracket the tenant's run.
	InitialPlacement *plan.Placement
	FinalPlacement   *plan.Placement
}

// MultiResult is the outcome of a multi-tenant run.
type MultiResult struct {
	// Tenants holds one entry per spec, in input order.
	Tenants []TenantResult
	// Completed and Aborted count tenant outcomes.
	Completed int
	Aborted   int
	// JainFairness is Jain's fairness index over the non-idle tenants'
	// iteration throughputs (1 = perfectly fair).
	JainFairness float64
	// TenantTraffic is each tenant's share of network activity.
	TenantTraffic []netmodel.TenantTraffic
	// LinkShares is the per-(link, tenant) contention breakdown.
	LinkShares []netmodel.LinkShare
	// PendingEvents is the kernel queue length after the run drained; zero
	// proves tenant teardown leaked no timers or wake-ups.
	PendingEvents int
	Shared
}

// tenantRun is the harness's per-tenant state: everything resolved at setup
// so the arrival callback cannot fail mid-simulation.
type tenantRun struct {
	spec   tenant.Spec
	shape  TreeShape
	policy placement.Policy

	serverHosts []netmodel.HostID
	tree        *plan.Tree
	images      [][]workload.Image
	model       plan.CostModel

	eng        *dataflow.Engine
	initial    *plan.Placement
	arrivedAt  sim.Time
	departedAt sim.Time
	departed   bool
}

// RunMulti executes a multi-tenant simulation: every tenant's query tree is
// instantiated on the shared kernel at its arrival time, runs its own
// placement policy against the shared network, and departs when its client
// has every iteration (or its engine aborts under faults). Determinism is
// unchanged from Run: the same config replays byte-for-byte, whatever the
// tenant count.
func RunMulti(cfg MultiConfig) (MultiResult, error) {
	if err := cfg.validate(); err != nil {
		return MultiResult{}, err
	}
	if len(cfg.Tenants) == 0 {
		return MultiResult{}, fmt.Errorf("core: no tenants")
	}
	seen := make(map[int32]bool, len(cfg.Tenants))
	runs := make([]*tenantRun, len(cfg.Tenants))
	for i, sp := range cfg.Tenants {
		if err := sp.Validate(); err != nil {
			return MultiResult{}, fmt.Errorf("core: %w", err)
		}
		if seen[sp.ID] {
			return MultiResult{}, fmt.Errorf("core: duplicate tenant ID %d", sp.ID)
		}
		seen[sp.ID] = true
		shape, err := ParseShape(sp.Shape)
		if err != nil {
			return MultiResult{}, fmt.Errorf("tenant %d: %w", sp.ID, err)
		}
		policy, err := NewPolicy(sp.Algorithm, PolicyOptions{Period: cfg.Period, Seed: sp.Seed})
		if err != nil {
			return MultiResult{}, fmt.Errorf("tenant %d: %w", sp.ID, err)
		}
		runs[i] = &tenantRun{spec: sp, shape: shape, policy: policy}
	}
	res, err := simulate(cfg, runs)
	if err != nil {
		return MultiResult{}, err
	}
	for _, t := range res.Tenants {
		if !t.Completed && !t.Aborted {
			return MultiResult{}, fmt.Errorf("core: tenant %d never departed", t.Spec.ID)
		}
	}
	return res, nil
}

// validate checks the shared-infrastructure fields.
func (cfg *MultiConfig) validate() error {
	if cfg.NumServers < 2 {
		return fmt.Errorf("core: need at least 2 servers, got %d", cfg.NumServers)
	}
	if cfg.Links == nil {
		return fmt.Errorf("core: Links is required")
	}
	return nil
}

// simulate is the one assembly path behind Run and RunMulti. It builds the
// kernel, network, monitor, fault injector and observers, schedules the
// fault plan once for all engines, instantiates each tenant at its arrival
// time, runs the kernel to completion and collects the outcome. A tenant
// that never departed is reported neither completed nor aborted.
func simulate(cfg MultiConfig, runs []*tenantRun) (MultiResult, error) {
	k := sim.NewKernel(sim.WithObserver(cfg.Perf), sim.WithTelemetry(cfg.Telemetry))
	var netOpts []netmodel.NetOption
	if cfg.FlatPriorities {
		netOpts = append(netOpts, netmodel.WithFlatPriorities())
	}
	net := netmodel.NewNetwork(k, netOpts...)
	for i := 0; i < cfg.NumServers; i++ {
		net.AddHost(fmt.Sprintf("s%d", i))
	}
	client := net.AddHost("client")
	for a := 0; a < net.NumHosts(); a++ {
		for b := a + 1; b < net.NumHosts(); b++ {
			tr := cfg.Links(netmodel.HostID(a), netmodel.HostID(b))
			if tr == nil {
				return MultiResult{}, fmt.Errorf("core: no trace for link %d<->%d", a, b)
			}
			net.SetLink(netmodel.HostID(a), netmodel.HostID(b), tr)
		}
	}
	mon := monitor.NewSystem(net, cfg.Monitor)
	var acc *estacc.Tracker // one shared tracker: per-link regime cursors span tenants
	if cfg.Estimates {
		acc = estacc.New(net, mon)
	}

	// Fault injection: generate (or take) the plan, validate it against the
	// topology — the client host is protected — and install the injector.
	// Everything is seeded, so a faulty run replays bit-for-bit.
	var inj *faults.Injector
	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed*1000003 + 17
		}
		faultPlan := fcfg.Plan
		if faultPlan == nil {
			faultPlan = faults.Generate(fcfg, net.NumHosts(), client.ID())
		}
		if err := faultPlan.Validate(net.NumHosts(), client.ID()); err != nil {
			return MultiResult{}, fmt.Errorf("core: invalid fault plan: %w", err)
		}
		inj = faults.NewInjector(faultPlan, rand.New(rand.NewSource(fcfg.Seed+1)))
		net.SetFaults(inj)
	}

	// Resolve every tenant's topology, tree and workload up front: arrival
	// callbacks run mid-simulation and must not be able to fail.
	var work int64
	for _, tr := range runs {
		if err := tr.prepare(cfg, net); err != nil {
			return MultiResult{}, err
		}
		if !tr.spec.Idle {
			iters := tr.spec.Iterations
			if iters <= 0 && len(tr.images) > 0 {
				iters = len(tr.images[0])
			}
			work += int64(iters)
		}
	}
	if cfg.Perf != nil {
		// One progress unit per image any tenant's client will receive.
		cfg.Perf.AddWork(work)
	}

	// One injector schedule for the whole run: each crash/recover window fans
	// out to every engine that has started. A departed engine's leftover
	// processes (idle servers, forwarders) still die with their host.
	if inj != nil {
		inj.Schedule(k, func(h netmodel.HostID) {
			for _, tr := range runs {
				if tr.eng != nil {
					tr.eng.HostCrashed(h)
				}
			}
		}, func(h netmodel.HostID) {
			for _, tr := range runs {
				if tr.eng != nil {
					tr.eng.HostRecovered(h)
				}
			}
		})
	}

	// Open-loop arrivals: each tenant joins at its own time, regardless of
	// how the others are doing.
	for _, tr := range runs {
		k.At(tr.spec.ArriveAt, func() {
			launchTenant(k, net, mon, acc, client.ID(), inj, tr)
		})
	}

	if err := k.Run(); err != nil {
		return MultiResult{}, fmt.Errorf("core: simulation failed: %w", err)
	}

	res := MultiResult{
		Tenants:       make([]TenantResult, len(runs)),
		TenantTraffic: net.TenantTraffic(),
		LinkShares:    net.LinkShares(),
		PendingEvents: k.Pending(),
		Shared: Shared{
			Probes:              mon.Probes(),
			PassiveMeasurements: mon.PassiveMeasurements(),
			CacheHitRate:        mon.CacheHitRate(),
			NetworkTransfers:    net.Transfers(),
			BytesMoved:          net.BytesMoved(),
			KernelEvents:        int64(k.Scheduled()),
		},
	}
	var throughputs []float64
	for i, tr := range runs {
		t := &res.Tenants[i]
		t.Spec, t.ArrivedAt, t.InitialPlacement = tr.spec, tr.arrivedAt, tr.initial
		if da, ok := tr.policy.(placement.DecisionAudited); ok {
			t.Decisions = da.DecisionStats()
		}
		if !tr.departed {
			continue
		}
		t.Completed = tr.eng.Completed()
		t.Aborted = tr.eng.Aborted()
		t.DepartedAt = tr.departedAt
		t.Residence = (tr.departedAt - tr.arrivedAt).Duration()
		t.FinalPlacement = tr.eng.CurrentPlacement()
		if t.Completed {
			t.Result = tr.eng.Result()
			t.Delivered = len(t.Result.Arrivals)
			res.Completed++
		} else {
			res.Aborted++
		}
		if t.Delivered > 0 {
			t.MeanLatency = t.Residence / time.Duration(t.Delivered)
			if secs := t.Residence.Seconds(); secs > 0 {
				t.Throughput = float64(t.Delivered) / secs
			}
		}
		if !tr.spec.Idle {
			throughputs = append(throughputs, t.Throughput)
		}
	}
	res.JainFairness = metrics.JainIndex(throughputs)
	if inj != nil {
		res.CrashesFired = inj.CrashesFired()
		res.MessagesDropped, res.MessagesDuplicated, res.TransfersCut = net.FaultCounts()
	}
	if cfg.Perf != nil {
		res.Perf = cfg.Perf.Report(net.Transfers(), net.BytesMoved())
	}
	return res, nil
}

// prepare resolves the tenant against the shared network: server hosts,
// combination tree, image sequences and cost model.
func (tr *tenantRun) prepare(cfg MultiConfig, net *netmodel.Network) error {
	sp := tr.spec
	serverHosts, err := sp.ServerHosts(cfg.NumServers)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if tr.shape == GreedyBandwidthTree {
		// Greedy ordering uses planning-time knowledge at the tenant's
		// arrival instant (the moment it would plan): cheapest (fastest)
		// server pairs combine deepest in the tree.
		tr.tree = plan.GreedyBinary(sp.NumServers, func(a, b int) float64 {
			return 1 / float64(net.BandwidthAt(serverHosts[a], serverHosts[b], sp.ArriveAt))
		})
	} else {
		tr.tree = tr.shape.Build(sp.NumServers)
	}
	if sp.Idle {
		// An idle tenant combines zero partitions: its processes spawn,
		// observe they have nothing to do, and finish without touching the
		// network, the disks or any random stream.
		tr.images = make([][]workload.Image, sp.NumServers)
	} else {
		tr.images = workload.Generate(sp.Seed, sp.NumServers, cfg.Workload)
	}
	tr.serverHosts = serverHosts
	tr.model = plan.DefaultCostModel(workload.MeanBytes(tr.images))
	return nil
}

// launchTenant instantiates a prepared tenant at the current simulated time:
// emits the arrival event and spawns its bootstrap process (tagged with the
// tenant ID so the whole per-tenant process tree inherits the tag). The
// bootstrap runs the policy's initial placement, then starts the engine.
func launchTenant(k *sim.Kernel, net *netmodel.Network, mon *monitor.System,
	acc *estacc.Tracker, clientHost netmodel.HostID, inj *faults.Injector, tr *tenantRun) {
	sp := tr.spec
	tr.arrivedAt = k.Now()
	if k.Telemetry() != nil {
		k.Emit(telemetry.Event{
			Kind: telemetry.KindTenantArrived, Tenant: sp.ID,
			Host: int32(clientHost), Iter: int32(sp.Iterations), Aux: sp.Algorithm,
		})
	}
	name := "bootstrap" // tenant 0 keeps the legacy unprefixed names
	if sp.ID != 0 {
		name = fmt.Sprintf("t%d.bootstrap", sp.ID)
	}
	bp := k.Spawn(name, func(p *sim.Proc) {
		inst := placement.NewInstance(net, mon, tr.tree, tr.serverHosts, clientHost, tr.model)
		inst.Acc = acc
		initial := tr.policy.InitialPlacement(p, inst)
		tr.initial = initial.Clone()
		eng := dataflow.New(dataflow.Config{
			Net: net, Tree: tr.tree,
			Initial:    initial,
			Images:     tr.images,
			Iterations: sp.Iterations,
			Faults:     inj,
			Tenant:     sp.ID,
			OnComplete: func() { departTenant(k, tr) },
		})
		tr.eng = eng
		tr.policy.Attach(inst, eng)
		eng.Start()
		if inj != nil {
			// A host that crashed during the initial placement is still
			// down: tell the engine once its processes are running.
			k.At(k.Now(), func() {
				for h := netmodel.HostID(0); int(h) < net.NumHosts(); h++ {
					if inj.HostDown(h) {
						eng.HostCrashed(h)
					}
				}
			})
		}
	})
	bp.SetTenant(sp.ID)
	bp.SetSubsystem(obs.SubsysPlacement)
}

// departTenant records a tenant's departure the moment its engine completes
// or aborts.
func departTenant(k *sim.Kernel, tr *tenantRun) {
	if tr.departed {
		return
	}
	tr.departed = true
	tr.departedAt = k.Now()
	aux := "completed"
	delivered := 0
	if tr.eng.Aborted() {
		aux = "aborted"
	} else {
		delivered = len(tr.eng.Result().Arrivals)
	}
	if k.Telemetry() != nil {
		k.Emit(telemetry.Event{
			Kind: telemetry.KindTenantDeparted, Tenant: tr.spec.ID,
			Iter: int32(delivered), Dur: int64(tr.departedAt - tr.arrivedAt), Aux: aux,
		})
	}
}
