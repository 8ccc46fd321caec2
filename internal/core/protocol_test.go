package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/trace"
)

// The fault-free protocol test holds every engine to the demand-driven
// protocol of paper §2 when nothing is lost: each producer is demanded each
// iteration exactly once and serves it exactly once, the client receives
// the images in order, and none of the recovery machinery (retries,
// re-instantiation, barrier cancellation, abort) ever runs. The cases move
// operators on real study-pool bandwidth, so relocation, forwarding and
// barrier change-overs are all exercised.

// studyLinks assigns a random study-pool trace, from noon on, to every link
// of the complete graph over numServers servers and the client, as
// experiment.GenerateAssignments does (that package imports this one).
func studyLinks(seed int64, numServers int) LinkFn {
	pool := trace.NewStudyPool(seed)
	rng := rand.New(rand.NewSource(seed))
	hosts := numServers + 1
	traces := make([][]*trace.Trace, hosts)
	for a := range traces {
		traces[a] = make([]*trace.Trace, hosts)
		for b := 0; b < a; b++ {
			traces[a][b] = pool.Pick(rng).Offset(12 * sim.Hour)
		}
	}
	return func(a, b netmodel.HostID) *trace.Trace {
		if a < b {
			a, b = b, a
		}
		return traces[a][b]
	}
}

// protocolRun is one tenant's outcome in a protocol case.
type protocolRun struct {
	tenant     int32
	producers  int // servers plus operators
	iterations int
	res        dataflow.Result
}

func TestFaultFreeProtocol(t *testing.T) {
	const servers, iters = 8, 40
	var moves, forwarded, switches int
	check := func(t *testing.T, events []telemetry.Event, runs []protocolRun) {
		for _, r := range runs {
			moves += r.res.Moves
			forwarded += r.res.Forwarded
			switches += r.res.Switches
		}
		checkProtocol(t, events, runs)
	}

	policies := chaosPolicies()
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, shape := range []TreeShape{CompleteBinaryTree, LeftDeepTree} {
			t.Run(name+"/"+shape.String(), func(t *testing.T) {
				rec := telemetry.NewRecorder()
				res := mustRun(t, RunConfig{
					Seed: 5, NumServers: servers, Shape: shape,
					Links: studyLinks(3, servers), Policy: policies[name](),
					Workload: smallWorkload(iters),
					Observe:  Observe{Telemetry: rec},
				})
				check(t, rec.Events(), []protocolRun{{
					producers: 2*servers - 1, iterations: iters, res: res.Result,
				}})
			})
		}
	}

	t.Run("multi-10", func(t *testing.T) {
		rec := telemetry.NewRecorder()
		res, err := RunMulti(MultiConfig{
			Seed: 9, NumServers: servers,
			Links: studyLinks(3, servers),
			Tenants: tenant.Population(tenant.PopulationConfig{
				N: 10, ArrivalRate: 0.05, Seed: 9, NumServers: 4, Iterations: 20,
			}),
			Workload: smallWorkload(20),
			Period:   2 * time.Minute,
			Observe:  Observe{Telemetry: rec},
		})
		if err != nil {
			t.Fatalf("RunMulti: %v", err)
		}
		if res.Completed != 10 {
			t.Fatalf("completed=%d aborted=%d, want 10/0", res.Completed, res.Aborted)
		}
		runs := make([]protocolRun, len(res.Tenants))
		for i, tr := range res.Tenants {
			runs[i] = protocolRun{
				tenant: tr.Spec.ID, producers: 2*tr.Spec.NumServers - 1,
				iterations: tr.Spec.Iterations, res: tr.Result,
			}
		}
		check(t, rec.Events(), runs)
	})

	if moves == 0 || forwarded == 0 || switches == 0 {
		t.Errorf("cases relocate too little to exercise the protocol: %d moves, %d forwarded, %d switches",
			moves, forwarded, switches)
	}
}

// checkProtocol asserts the fault-free protocol on one run's event stream.
func checkProtocol(t *testing.T, events []telemetry.Event, runs []protocolRun) {
	t.Helper()
	type key struct{ tenant, node, iter int32 }
	served, demanded := map[key]int{}, map[key]int{}
	arrived := map[int32][]int32{}
	for _, ev := range events {
		k := key{ev.Tenant, ev.Node, ev.Iter}
		switch ev.Kind {
		case telemetry.KindDataServed:
			served[k]++
		case telemetry.KindDemandSent:
			demanded[k]++
		case telemetry.KindImageArrived:
			arrived[ev.Tenant] = append(arrived[ev.Tenant], ev.Iter)
		case telemetry.KindRetryScheduled, telemetry.KindReinstantiated,
			telemetry.KindRunAborted, telemetry.KindBarrierCancelled:
			t.Errorf("recovery event without faults: %+v", ev)
		}
	}
	for _, r := range runs {
		if r.res.Retries != 0 || r.res.Reinstantiations != 0 || r.res.Invalidated != 0 {
			t.Errorf("tenant %d: retries=%d reinstantiations=%d invalidated=%d, want 0",
				r.tenant, r.res.Retries, r.res.Reinstantiations, r.res.Invalidated)
		}
		for node := int32(0); node < int32(r.producers); node++ {
			for it := int32(0); it < int32(r.iterations); it++ {
				k := key{r.tenant, node, it}
				if served[k] != 1 || demanded[k] != 1 {
					t.Errorf("tenant %d node %d iteration %d: served %d times, demanded %d times, want 1 and 1",
						r.tenant, node, it, served[k], demanded[k])
				}
				delete(served, k)
				delete(demanded, k)
			}
		}
		got := arrived[r.tenant]
		if len(got) != r.iterations {
			t.Errorf("tenant %d: %d images arrived, want %d", r.tenant, len(got), r.iterations)
		}
		for i, it := range got {
			if it != int32(i) {
				t.Errorf("tenant %d: arrival %d is iteration %d, want in order", r.tenant, i, it)
				break
			}
		}
	}
	if len(served) != 0 || len(demanded) != 0 {
		t.Errorf("%d data-served and %d demand-sent keys outside the runs' nodes and iterations",
			len(served), len(demanded))
	}
}
