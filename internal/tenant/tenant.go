// Package tenant models the population of independent clients that share
// one simulated wide-area network in a multi-tenant run: per-tenant identity,
// workload and placement configuration, plus a seeded open-loop arrival
// process. The package is pure description — instantiating a tenant's query
// tree on a shared kernel is core.RunMulti's job.
package tenant

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
)

// Spec describes one tenant: an independent client query with its own
// combination tree, placement policy and iteration clock, contending with
// every other tenant for the shared network.
type Spec struct {
	// ID is the tenant's identity, stamped onto every event its processes
	// emit. IDs must be positive: 0 is the shared-infrastructure tag, which
	// core.Run also gives its one tenant so a solo run keeps unprefixed
	// process and port names.
	ID int32
	// ArriveAt is when the tenant's query tree is instantiated on the shared
	// kernel (open-loop: arrivals do not wait for earlier tenants).
	ArriveAt sim.Time
	// Seed drives the tenant's private randomness: workload generation,
	// server-host draws, and the local policy's candidate sampling.
	Seed int64
	// NumServers is the tenant's data-source count (combination-tree leaves).
	NumServers int
	// Iterations is the number of partitions the tenant combines.
	Iterations int
	// Algorithm is the tenant's placement policy: "download-all", "one-shot",
	// "global" or "local".
	Algorithm string
	// Shape is the combination order: "binary" (default), "left-deep" or
	// "greedy".
	Shape string
	// Servers optionally pins the tenant's data sources to specific hosts of
	// the shared pool. Nil means the hosts are drawn deterministically from
	// Seed at instantiation.
	Servers []netmodel.HostID
	// Idle marks a tenant that joins and completes immediately without
	// generating any traffic (zero iterations over empty image sequences).
	// The isolation property test surrounds one active tenant with idle ones.
	Idle bool
}

// Validate reports structural problems with the spec. The algorithm and
// shape names are checked where they are parsed, by core.RunMulti.
func (s Spec) Validate() error {
	if s.ID <= 0 {
		return fmt.Errorf("tenant: ID must be positive, got %d", s.ID)
	}
	if s.NumServers < 2 {
		return fmt.Errorf("tenant %d: need at least 2 servers, got %d", s.ID, s.NumServers)
	}
	if !s.Idle && s.Iterations <= 0 {
		return fmt.Errorf("tenant %d: non-idle tenant needs positive iterations", s.ID)
	}
	return nil
}

// ServerHosts returns the tenant's data-source hosts within the shared pool
// of poolSize server hosts (IDs 0..poolSize-1): the pinned Servers if set,
// otherwise a deterministic seed-driven draw of NumServers distinct hosts.
// The draw is sorted, so host order — and with it mailbox creation and event
// order — is a pure function of the chosen set.
func (s Spec) ServerHosts(poolSize int) ([]netmodel.HostID, error) {
	if s.Servers != nil {
		if len(s.Servers) != s.NumServers {
			return nil, fmt.Errorf("tenant %d: %d pinned servers for NumServers=%d",
				s.ID, len(s.Servers), s.NumServers)
		}
		for _, h := range s.Servers {
			if int(h) < 0 || int(h) >= poolSize {
				return nil, fmt.Errorf("tenant %d: pinned server host %d outside pool of %d", s.ID, h, poolSize)
			}
		}
		return s.Servers, nil
	}
	if s.NumServers > poolSize {
		return nil, fmt.Errorf("tenant %d: %d servers exceed pool of %d", s.ID, s.NumServers, poolSize)
	}
	rng := rand.New(rand.NewSource(s.Seed ^ int64(s.ID)*0x5851F42D4C957F2D))
	perm := rng.Perm(poolSize)[:s.NumServers]
	hosts := make([]netmodel.HostID, s.NumServers)
	for i, p := range perm {
		hosts[i] = netmodel.HostID(p)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	return hosts, nil
}

// PopulationConfig parameterises a generated tenant population.
type PopulationConfig struct {
	// N is the number of tenants.
	N int
	// ArrivalRate is the open-loop arrival rate in tenants per simulated
	// second: interarrival gaps are exponential draws from the seeded stream.
	// Zero means every tenant arrives at time zero.
	ArrivalRate float64
	// Seed drives the arrival gaps and every tenant's private seed.
	Seed int64
	// NumServers is each tenant's data-source count.
	NumServers int
	// Iterations is each tenant's iteration count.
	Iterations int
	// Algorithms is cycled across the tenants in ID order (default: all four
	// placement algorithms).
	Algorithms []string
}

// DefaultAlgorithms is the standard policy mix for generated populations.
var DefaultAlgorithms = []string{"download-all", "one-shot", "global", "local"}

// Population generates an arrival-ordered tenant population: a seeded
// open-loop Poisson arrival process (exponential interarrival gaps at
// ArrivalRate) over N tenants with per-tenant seeds derived from cfg.Seed.
// The same config always yields the same population.
func Population(cfg PopulationConfig) []Spec {
	algs := cfg.Algorithms
	if len(algs) == 0 {
		algs = DefaultAlgorithms
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]Spec, cfg.N)
	at := sim.Time(0)
	for i := range specs {
		if cfg.ArrivalRate > 0 {
			gap := rng.ExpFloat64() / cfg.ArrivalRate // seconds
			at = at.Add(time.Duration(gap * float64(time.Second)))
		}
		specs[i] = Spec{
			ID:         int32(i + 1),
			ArriveAt:   at,
			Seed:       cfg.Seed*1000003 + int64(i)*7919 + 11,
			NumServers: cfg.NumServers,
			Iterations: cfg.Iterations,
			Algorithm:  algs[i%len(algs)],
		}
	}
	return specs
}
