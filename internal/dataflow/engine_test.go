package dataflow

import (
	"fmt"
	"math"
	"testing"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// testRig assembles a network of n servers + client with constant-bandwidth
// links and fixed-size images.
type testRig struct {
	k      *sim.Kernel
	net    *netmodel.Network
	tree   *plan.Tree
	images [][]workload.Image
	init   *plan.Placement
}

func newRig(servers, iters int, bw trace.Bandwidth, imageBytes int64) *testRig {
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	for i := 0; i < servers; i++ {
		net.AddHost(fmt.Sprintf("s%d", i))
	}
	net.AddHost("client")
	for a := 0; a < net.NumHosts(); a++ {
		for b := a + 1; b < net.NumHosts(); b++ {
			net.SetLink(netmodel.HostID(a), netmodel.HostID(b),
				trace.Constant(fmt.Sprintf("l%d-%d", a, b), bw))
		}
	}
	// The monitor observes every transfer through the network, as in a run.
	monitor.NewSystem(net, monitor.DefaultConfig())
	tree := plan.CompleteBinary(servers)
	sh, ch := plan.DefaultHostAssignment(servers)
	images := make([][]workload.Image, servers)
	for s := range images {
		for i := 0; i < iters; i++ {
			images[s] = append(images[s], workload.Image{Index: i, Bytes: imageBytes})
		}
	}
	return &testRig{
		k: k, net: net, tree: tree, images: images,
		init: plan.NewPlacement(tree, sh, ch),
	}
}

func (r *testRig) engine(cfg func(*Config)) *Engine {
	c := Config{
		Net: r.net, Tree: r.tree, Initial: r.init,
		Images: r.images,
	}
	if cfg != nil {
		cfg(&c)
	}
	return New(c)
}

// transfer is one data message, as its data-served event reports it: node
// From served iteration Iter from host FromHost to its consumer To (the
// node's parent in the tree) on host ToHost.
type transfer struct {
	Iter             int
	From, To         plan.NodeID
	FromHost, ToHost netmodel.HostID
}

// recordTransfers attaches a telemetry recorder to the rig's kernel (call it
// before the engine starts); the returned function lists the data transfers
// recorded so far, in serve order.
func (r *testRig) recordTransfers() func() []transfer {
	rec := &telemetry.Recorder{}
	r.k.AddSink(rec)
	return func() []transfer {
		var out []transfer
		for _, ev := range rec.Events() {
			if ev.Kind == telemetry.KindDataServed {
				from := plan.NodeID(ev.Node)
				out = append(out, transfer{
					Iter: int(ev.Iter), From: from, To: r.tree.Node(from).Parent,
					FromHost: netmodel.HostID(ev.Host), ToHost: netmodel.HostID(ev.Peer),
				})
			}
		}
		return out
	}
}

func (r *testRig) run(t *testing.T, e *Engine) Result {
	t.Helper()
	e.Start()
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !e.Completed() {
		t.Fatal("engine did not complete")
	}
	return e.Result()
}

func TestDownloadAllSingleIterationTiming(t *testing.T) {
	// Hand-checkable: 2 servers, 128 KiB images, 128 KiB/s links, ops at
	// client. Expected arrival (see derivation in comments):
	//   demand(s0) 0.059765625s, demand(s1) until 0.11953125s,
	//   s0 disk until 0.101432292, s0 data [0.11953125, 1.16953125]
	//   (waits for the client NIC), s1 disk until 0.161197917,
	//   s1 data [1.16953125, 2.21953125], compose 0.917504s
	//   => 3.137035s.
	r := newRig(2, 1, 128*1024, 128*1024)
	transfers := r.recordTransfers()
	e := r.engine(nil)
	res := r.run(t, e)
	if len(res.Arrivals) != 1 {
		t.Fatalf("arrivals = %v", res.Arrivals)
	}
	want := 3.137035
	if got := res.Arrivals[0].Seconds(); math.Abs(got-want) > 1e-3 {
		t.Errorf("arrival = %.6fs, want ~%.6fs", got, want)
	}
	// Two remote data transfers (server->client); op->client is local.
	dataCount := 0
	for _, tr := range transfers() {
		if tr.FromHost != tr.ToHost {
			dataCount++
		}
	}
	if dataCount != 2 {
		t.Errorf("remote data transfers = %d, want 2", dataCount)
	}
	if res.Moves != 0 || res.Switches != 0 {
		t.Errorf("unexpected moves/switches: %+v", res)
	}
}

func TestPipelineAllIterationsArrive(t *testing.T) {
	r := newRig(4, 6, 64*1024, 100*1024)
	e := r.engine(nil)
	res := r.run(t, e)
	if len(res.Arrivals) != 6 {
		t.Fatalf("arrivals = %d", len(res.Arrivals))
	}
	for i := 1; i < len(res.Arrivals); i++ {
		if res.Arrivals[i] <= res.Arrivals[i-1] {
			t.Errorf("arrivals not increasing at %d: %v", i, res.Arrivals)
		}
	}
	if res.Completion != res.Arrivals[5] {
		t.Errorf("completion = %v", res.Completion)
	}
	if res.MeanInterarrival <= 0 {
		t.Errorf("mean interarrival = %v", res.MeanInterarrival)
	}
	// Pipelining: later iterations should arrive faster than the first
	// (prefetch overlaps), i.e. completion < 6 * first arrival.
	if res.Completion >= 6*res.Arrivals[0] {
		t.Errorf("no pipelining: first=%v completion=%v", res.Arrivals[0], res.Completion)
	}
}

func TestDeterministicArrivals(t *testing.T) {
	run := func() []sim.Time {
		r := newRig(4, 5, 32*1024, 64*1024)
		e := r.engine(nil)
		return r.run(t, e).Arrivals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWindowHookMove(t *testing.T) {
	r := newRig(2, 5, 64*1024, 64*1024)
	transfers := r.recordTransfers()
	e := r.engine(nil)
	op := r.tree.Operators()[0]
	moved := false
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		if !moved && iter == 1 {
			moved = true
			return 0, true // move the operator to server 0's host
		}
		return 0, false
	})
	res := r.run(t, e)
	if res.Moves != 1 {
		t.Fatalf("moves = %d, want 1", res.Moves)
	}
	mv := res.MoveLog[0]
	if mv.Op != op || mv.From != 2 || mv.To != 0 || mv.Barrier {
		t.Errorf("move record = %+v", mv)
	}
	if e.CurrentHost(op) != 0 {
		t.Errorf("operator host = %d", e.CurrentHost(op))
	}
	// After the move, server 0's data is local to the operator: its
	// transfers for iterations > 1 must be host-local.
	for _, tr := range transfers() {
		if tr.Iter >= 3 && tr.From == r.tree.Servers()[0] {
			if tr.FromHost != 0 || tr.ToHost != 0 {
				t.Errorf("iter %d server0 transfer %d->%d, want local", tr.Iter, tr.FromHost, tr.ToHost)
			}
		}
	}
	if len(res.Arrivals) != 5 {
		t.Errorf("arrivals = %d", len(res.Arrivals))
	}
}

func TestBarrierSwitchAtomicPerIteration(t *testing.T) {
	// The Figure 3 property: with a coordinated change-over, every data
	// transfer must travel an edge of the old placement or of the new
	// placement — never a link present in neither.
	r := newRig(4, 12, 64*1024, 64*1024)
	transfers := r.recordTransfers()
	e := r.engine(nil)
	oldPl := r.init.Clone()
	newPl := r.init.Clone()
	for i, op := range r.tree.Operators() {
		newPl.SetLoc(op, netmodel.HostID(i%4)) // scatter all operators
	}
	// Propose after a couple of iterations.
	proposed := false
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		if !proposed && iter == 1 {
			proposed = true
			if !e.ProposeSwitch(newPl) {
				t.Error("ProposeSwitch rejected")
			}
		}
		return 0, false
	})
	res := r.run(t, e)
	if res.Switches != 1 {
		t.Fatalf("switches = %d, want 1", res.Switches)
	}
	edgeHosts := func(pl *plan.Placement, from, to plan.NodeID) (netmodel.HostID, netmodel.HostID) {
		return pl.Loc(from), pl.Loc(to)
	}
	// Every iteration's transfers must be consistent with exactly one of
	// the two placements, and the assignment must be monotone: old ... old,
	// new ... new.
	perIter := map[int]string{}
	for _, tr := range transfers() {
		of, ot := edgeHosts(oldPl, tr.From, tr.To)
		nf, nt := edgeHosts(newPl, tr.From, tr.To)
		isOld := tr.FromHost == of && tr.ToHost == ot
		isNew := tr.FromHost == nf && tr.ToHost == nt
		if !isOld && !isNew {
			t.Fatalf("iter %d transfer %d->%d used link h%d->h%d, in neither placement (Figure 3 hazard)",
				tr.Iter, tr.From, tr.To, tr.FromHost, tr.ToHost)
		}
		label := "old"
		if isNew && !isOld {
			label = "new"
		}
		if prev, ok := perIter[tr.Iter]; ok && prev != label && !(isOld && isNew) {
			t.Errorf("iter %d mixes old and new placement transfers", tr.Iter)
		}
		if !(isOld && isNew) {
			perIter[tr.Iter] = label
		}
	}
	// There must be a switch point: early iterations old, late ones new.
	sawNew := false
	for it := 0; it < 12; it++ {
		switch perIter[it] {
		case "new":
			sawNew = true
		case "old":
			if sawNew {
				t.Errorf("iteration %d reverted to old placement", it)
			}
		}
	}
	if !sawNew {
		t.Error("switch never took effect in data routing")
	}
	if res.Moves == 0 {
		t.Error("no operators moved in the switch")
	}
}

func TestLateProposalDropped(t *testing.T) {
	r := newRig(2, 3, 64*1024, 64*1024)
	e := r.engine(nil)
	newPl := r.init.Clone()
	newPl.SetLoc(r.tree.Operators()[0], 0)
	proposed := false
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		if !proposed && iter == 1 {
			proposed = true
			// Depth 1 tree, 3 iterations: attaching at client iteration >= 1
			// cannot reach servers in time, so the proposal must be dropped.
			e.ProposeSwitch(newPl)
		}
		return 0, false
	})
	res := r.run(t, e)
	if res.Switches != 0 || res.Moves != 0 {
		t.Errorf("late proposal executed: %+v", res)
	}
}

func TestLaterProducerMarking(t *testing.T) {
	// Server 1 sits behind a link 8x slower than server 0's: the operator
	// must mark server 1 "later" on (almost) every iteration.
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	net.AddHost("s0")
	net.AddHost("s1")
	net.AddHost("client")
	fast := trace.Constant("fast", 256*1024)
	slow := trace.Constant("slow", 32*1024)
	net.SetLink(0, 2, fast)
	net.SetLink(1, 2, slow)
	net.SetLink(0, 1, fast)
	monitor.NewSystem(net, monitor.DefaultConfig())
	tree := plan.CompleteBinary(2)
	sh, ch := plan.DefaultHostAssignment(2)
	var images [][]workload.Image
	for s := 0; s < 2; s++ {
		var seq []workload.Image
		for i := 0; i < 8; i++ {
			seq = append(seq, workload.Image{Index: i, Bytes: 64 * 1024})
		}
		images = append(images, seq)
	}
	e := New(Config{Net: net, Tree: tree,
		Initial: plan.NewPlacement(tree, sh, ch), Images: images})
	e.Start()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	slowMarks, slowSends, _ := e.Counters(tree.Servers()[1])
	fastMarks, _, _ := e.Counters(tree.Servers()[0])
	if slowMarks <= fastMarks {
		t.Errorf("slow server marks=%d, fast=%d; want slow > fast", slowMarks, fastMarks)
	}
	if 2*slowMarks <= slowSends {
		t.Errorf("slow server marked %d of %d sends; want majority", slowMarks, slowSends)
	}
	// The root operator's consumer (the client) always flags critical.
	_, _, consCrit := e.Counters(tree.Root())
	if !consCrit {
		t.Error("root operator did not see consumer-critical flag")
	}
}

func TestForwardingDeliversInFlightDemand(t *testing.T) {
	// Move the operator on every window: demands racing the move notices
	// must still be delivered (via forwarders), and the run must complete.
	r := newRig(2, 8, 64*1024, 64*1024)
	e := r.engine(nil)
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		return netmodel.HostID(iter % 3), true // bounce around all hosts
	})
	res := r.run(t, e)
	if len(res.Arrivals) != 8 {
		t.Fatalf("arrivals = %d", len(res.Arrivals))
	}
	if res.Moves < 5 {
		t.Errorf("moves = %d, want several", res.Moves)
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(2, 2, 1024, 1024)
	mustPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
	mustPanic("nil net", func() { New(Config{Tree: r.tree, Initial: r.init}) })
	mustPanic("wrong images", func() {
		New(Config{Net: r.net, Tree: r.tree, Initial: r.init, Images: r.images[:1]})
	})
	mustPanic("too few images", func() {
		New(Config{Net: r.net, Tree: r.tree, Initial: r.init, Images: r.images, Iterations: 99})
	})
	mustPanic("foreign placement", func() {
		other := plan.CompleteBinary(2)
		sh, ch := plan.DefaultHostAssignment(2)
		New(Config{Net: r.net, Tree: r.tree, Initial: plan.NewPlacement(other, sh, ch), Images: r.images})
	})
	mustPanic("result before completion", func() {
		e := r.engine(nil)
		e.Result()
	})
}

func TestProposeSwitchGuards(t *testing.T) {
	r := newRig(2, 2, 1024, 64*1024)
	e := r.engine(nil)
	if e.ProposeSwitch(r.init.Clone()) {
		t.Error("proposal equal to current placement accepted")
	}
	moved := r.init.Clone()
	moved.SetLoc(r.tree.Operators()[0], 0)
	if !e.ProposeSwitch(moved) {
		t.Error("first distinct proposal rejected")
	}
	if e.ProposeSwitch(moved) {
		t.Error("second proposal accepted while one pending")
	}
}

func TestCurrentPlacementReflectsEngine(t *testing.T) {
	r := newRig(2, 2, 64*1024, 64*1024)
	e := r.engine(nil)
	if !e.CurrentPlacement().Equal(r.init) {
		t.Error("initial CurrentPlacement mismatch")
	}
	if e.Kernel() != r.k {
		t.Error("kernel accessor wrong")
	}
}

func TestCriticalFlagAccessors(t *testing.T) {
	r := newRig(2, 2, 64*1024, 64*1024)
	e := r.engine(nil)
	op := r.tree.Operators()[0]
	if e.Critical(op) {
		t.Error("operator critical by default")
	}
	e.SetCritical(op, true)
	if !e.Critical(op) {
		t.Error("SetCritical did not stick")
	}
	if !e.Critical(r.tree.ClientNode()) {
		t.Error("client not critical by definition")
	}
}
