package placement

import (
	"fmt"
	"testing"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// policyRig wires a small network + engine directly (white-box: the tests
// here inspect policy-internal counters that core.Run does not expose).
type policyRig struct {
	k      *sim.Kernel
	net    *netmodel.Network
	mon    *monitor.System
	inst   *Instance
	images [][]workload.Image
}

func newPolicyRig(t *testing.T, servers, iters int, links func(a, b netmodel.HostID) *trace.Trace) *policyRig {
	t.Helper()
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	for i := 0; i < servers; i++ {
		net.AddHost(fmt.Sprintf("s%d", i))
	}
	client := net.AddHost("client")
	for a := 0; a < net.NumHosts(); a++ {
		for b := a + 1; b < net.NumHosts(); b++ {
			net.SetLink(netmodel.HostID(a), netmodel.HostID(b), links(netmodel.HostID(a), netmodel.HostID(b)))
		}
	}
	mon := monitor.NewSystem(net, monitor.DefaultConfig())
	tree := plan.CompleteBinary(servers)
	sh, _ := plan.DefaultHostAssignment(servers)
	images := make([][]workload.Image, servers)
	for s := range images {
		for i := 0; i < iters; i++ {
			images[s] = append(images[s], workload.Image{Index: i, Bytes: 96 * 1024})
		}
	}
	model := plan.DefaultCostModel(96 * 1024)
	inst := NewInstance(net, mon, tree, sh, client.ID(), model)
	return &policyRig{k: k, net: net, mon: mon, inst: inst, images: images}
}

func (r *policyRig) run(t *testing.T, p Policy) *dataflow.Engine {
	t.Helper()
	var eng *dataflow.Engine
	r.k.Spawn("bootstrap", func(proc *sim.Proc) {
		initial := p.InitialPlacement(proc, r.inst)
		eng = dataflow.New(dataflow.Config{
			Net: r.net, Tree: r.inst.Tree,
			Initial: initial, Images: r.images,
		})
		p.Attach(r.inst, eng)
		eng.Start()
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !eng.Completed() {
		t.Fatal("run incomplete")
	}
	return eng
}

func uniformLinks(bw trace.Bandwidth) func(a, b netmodel.HostID) *trace.Trace {
	return func(a, b netmodel.HostID) *trace.Trace { return trace.Constant("l", bw) }
}

func TestGlobalProposalCounter(t *testing.T) {
	g := &Global{Period: time.Minute}
	r := newPolicyRig(t, 4, 30, uniformLinks(32*1024))
	eng := r.run(t, g)
	// On a static uniform network the current placement stays optimal: the
	// optimiser keeps returning it, so no change-overs should be proposed.
	if g.Proposals() != 0 {
		t.Errorf("proposals = %d on a static network", g.Proposals())
	}
	if eng.Result().Switches != 0 {
		t.Errorf("switches = %d", eng.Result().Switches)
	}
}

func TestLocalDecisionCadence(t *testing.T) {
	l := &Local{Period: 2 * time.Minute, Seed: 1}
	r := newPolicyRig(t, 4, 40, uniformLinks(32*1024))
	eng := r.run(t, l)
	res := eng.Result()
	// Completion is roughly iterations x per-iteration time; each operator
	// acts about once per period. There must be at least a handful of
	// decisions and no runaway.
	if l.Decisions() == 0 {
		t.Fatal("local made no epoch decisions")
	}
	opCount := r.inst.Tree.NumOperators()
	maxDecisions := opCount * (int(res.Completion/(2*sim.Minute)) + 2)
	if l.Decisions() > maxDecisions {
		t.Errorf("decisions = %d, cap %d (epoch cadence broken)", l.Decisions(), maxDecisions)
	}
}

func TestLocalCriticalityPropagation(t *testing.T) {
	// With one dramatically slow server link, the operator chain above that
	// server should end up flagged critical; the sibling subtree should not.
	slowLinks := func(a, b netmodel.HostID) *trace.Trace {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == 0 { // every link of server 0 is slow
			return trace.Constant("slow", 4*1024)
		}
		return trace.Constant("fast", 256*1024)
	}
	l := &Local{Period: time.Minute, Seed: 1}
	r := newPolicyRig(t, 4, 40, slowLinks)
	eng := r.run(t, l)
	tree := r.inst.Tree
	// The root is critical by definition.
	if !eng.Critical(tree.Root()) {
		t.Error("root not critical")
	}
	// Exactly one of the two siblings under each leaf operator is marked
	// "later" per iteration, so the marks across the first pair must sum to
	// (roughly) the number of deliveries. Note the *slow* server is often
	// NOT the marked one: the one-shot initial placement co-locates the
	// operator with the slow server, hiding its delay, and the remote
	// sibling becomes the straggler — which is precisely the behaviour the
	// marking rule is supposed to capture.
	s0, s1 := tree.Servers()[0], tree.Servers()[1]
	m0, sends0, _ := eng.Counters(s0)
	m1, _, _ := eng.Counters(s1)
	if m0+m1 == 0 {
		t.Error("no later-marks recorded at the leaf pair")
	}
	if m0+m1 > sends0+1 {
		t.Errorf("marks %d+%d exceed deliveries %d", m0, m1, sends0)
	}
}

func TestOneShotUsesMonitoredEstimates(t *testing.T) {
	// The one-shot initial placement must trigger probes (cold caches) and
	// those probes cost simulated time before the first demand.
	r := newPolicyRig(t, 2, 3, uniformLinks(64*1024))
	eng := r.run(t, OneShot{})
	if r.mon.Probes() == 0 {
		t.Error("one-shot ran without probing any link")
	}
	res := eng.Result()
	if res.Arrivals[0] == 0 {
		t.Error("first arrival at t=0 despite probe costs")
	}
}
