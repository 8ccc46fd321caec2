package dataflow

import (
	"fmt"
	"testing"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// leftDeepRig builds a left-deep tree rig (deeper pipelines exercise the
// proposal-propagation and switch-iteration slack logic harder).
func leftDeepRig(servers, iters int, bw trace.Bandwidth) *testRig {
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	for i := 0; i < servers; i++ {
		net.AddHost(fmt.Sprintf("s%d", i))
	}
	net.AddHost("client")
	for a := 0; a < net.NumHosts(); a++ {
		for b := a + 1; b < net.NumHosts(); b++ {
			net.SetLink(netmodel.HostID(a), netmodel.HostID(b), trace.Constant("l", bw))
		}
	}
	monitor.NewSystem(net, monitor.DefaultConfig())
	tree := plan.LeftDeep(servers)
	sh, ch := plan.DefaultHostAssignment(servers)
	images := make([][]workload.Image, servers)
	for s := range images {
		for i := 0; i < iters; i++ {
			images[s] = append(images[s], workload.Image{Index: i, Bytes: 80 * 1024})
		}
	}
	return &testRig{
		k: k, net: net, tree: tree, images: images,
		init: plan.NewPlacement(tree, sh, ch),
	}
}

func TestLeftDeepPipelineCompletes(t *testing.T) {
	r := leftDeepRig(5, 8, 64*1024)
	e := r.engine(nil)
	res := r.run(t, e)
	if len(res.Arrivals) != 8 {
		t.Fatalf("arrivals = %d", len(res.Arrivals))
	}
	for i := 1; i < len(res.Arrivals); i++ {
		if res.Arrivals[i] <= res.Arrivals[i-1] {
			t.Errorf("arrivals not increasing at %d", i)
		}
	}
}

func TestLeftDeepBarrierSwitch(t *testing.T) {
	// Left-deep depth 4 with 24 iterations: the proposal needs 4 iterations
	// to reach the deepest server and the switch fires depth+1 past the max
	// report; assert the Figure-3 property still holds on the deep pipeline.
	r := leftDeepRig(5, 24, 64*1024)
	transfers := r.recordTransfers()
	e := r.engine(nil)
	oldPl := r.init.Clone()
	newPl := r.init.Clone()
	for i, op := range r.tree.Operators() {
		newPl.SetLoc(op, netmodel.HostID(i%5))
	}
	proposed := false
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		if !proposed && iter == 2 {
			proposed = true
			e.ProposeSwitch(newPl)
		}
		return 0, false
	})
	res := r.run(t, e)
	if res.Switches != 1 {
		t.Fatalf("switches = %d", res.Switches)
	}
	for _, tr := range transfers() {
		of, ot := oldPl.Loc(tr.From), oldPl.Loc(tr.To)
		nf, nt := newPl.Loc(tr.From), newPl.Loc(tr.To)
		isOld := tr.FromHost == of && tr.ToHost == ot
		isNew := tr.FromHost == nf && tr.ToHost == nt
		if !isOld && !isNew {
			t.Fatalf("iter %d transfer %d->%d used off-placement link h%d->h%d",
				tr.Iter, tr.From, tr.To, tr.FromHost, tr.ToHost)
		}
	}
}

func TestTwoSequentialSwitches(t *testing.T) {
	r := newRig(4, 30, 64*1024, 64*1024)
	e := r.engine(nil)
	plA := r.init.Clone()
	for i, op := range r.tree.Operators() {
		plA.SetLoc(op, netmodel.HostID(i%4))
	}
	plB := r.init.Clone() // back to the client
	stage := 0
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		switch {
		case stage == 0 && iter == 1:
			if e.ProposeSwitch(plA) {
				stage = 1
			}
		case stage == 1 && iter == 12 && !e.SwitchInProgress():
			if e.ProposeSwitch(plB) {
				stage = 2
			}
		}
		return 0, false
	})
	res := r.run(t, e)
	if res.Switches != 2 {
		t.Fatalf("switches = %d, want 2", res.Switches)
	}
	// After the second switch everything is back at the client.
	for _, op := range r.tree.Operators() {
		if e.CurrentHost(op) != 4 {
			t.Errorf("op %d at h%d after return switch", op, e.CurrentHost(op))
		}
	}
	if len(res.Arrivals) != 30 {
		t.Errorf("arrivals = %d", len(res.Arrivals))
	}
}

func TestSwitchWithCatchUpMove(t *testing.T) {
	// The catch-up path (applySwitchIfDue when the demand for the switch
	// iteration arrives, moving held data) needs a switch that becomes
	// known to an operator only after it prefetched the switch iteration.
	// Without faults that cannot happen: the order piggybacks on every data
	// message from the servers' maximum report on, so the relocation-window
	// call applies it before the prefetch. Instead verify the MoveLog
	// records barrier moves and every barrier move happened at or before
	// the first post-switch data transfer of its operator.
	r := newRig(4, 16, 64*1024, 64*1024)
	transfers := r.recordTransfers()
	e := r.engine(nil)
	newPl := r.init.Clone()
	for i, op := range r.tree.Operators() {
		newPl.SetLoc(op, netmodel.HostID((i+1)%4))
	}
	proposed := false
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		if !proposed && iter == 1 {
			proposed = true
			e.ProposeSwitch(newPl)
		}
		return 0, false
	})
	res := r.run(t, e)
	if res.Switches != 1 || res.Moves != len(r.tree.Operators()) {
		t.Fatalf("switches=%d moves=%d", res.Switches, res.Moves)
	}
	for _, mv := range res.MoveLog {
		if !mv.Barrier {
			t.Errorf("move %+v not marked as barrier move", mv)
		}
	}
	// Data transfers from a moved operator at iterations >= the switch must
	// originate from its new host.
	firstNew := map[plan.NodeID]int{}
	for _, tr := range transfers() {
		if r.tree.Node(tr.From).Kind != plan.Operator {
			continue
		}
		if tr.FromHost == newPl.Loc(tr.From) {
			if _, ok := firstNew[tr.From]; !ok {
				firstNew[tr.From] = tr.Iter
			}
		} else if cur, ok := firstNew[tr.From]; ok && tr.Iter > cur {
			t.Errorf("op %d reverted to old host at iter %d", tr.From, tr.Iter)
		}
	}
	if len(firstNew) != len(r.tree.Operators()) {
		t.Errorf("not all operators served from new hosts: %v", firstNew)
	}
}

func TestForwardedCountsAndNotices(t *testing.T) {
	// Rapid moves force some demands through forwarders; the counter must
	// reflect them and no message may be lost (all arrivals present).
	r := newRig(2, 12, 128*1024, 32*1024)
	e := r.engine(nil)
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		return netmodel.HostID((iter + 1) % 3), true
	})
	res := r.run(t, e)
	if len(res.Arrivals) != 12 {
		t.Fatalf("arrivals = %d", len(res.Arrivals))
	}
	if res.Moves < 10 {
		t.Errorf("moves = %d", res.Moves)
	}
	if res.Forwarded < 0 {
		t.Errorf("forwarded = %d", res.Forwarded)
	}
}

func TestEngineCountersAfterRun(t *testing.T) {
	r := newRig(2, 6, 64*1024, 64*1024)
	e := r.engine(nil)
	res := r.run(t, e)
	_ = res
	for _, s := range r.tree.Servers() {
		marks, sends, _ := e.Counters(s)
		if sends != 6 {
			t.Errorf("server %d sends = %d", s, sends)
		}
		if marks < 0 || marks > 6 {
			t.Errorf("server %d marks = %d", s, marks)
		}
	}
	_, rootSends, rootCrit := e.Counters(r.tree.Root())
	if rootSends != 6 {
		t.Errorf("root sends = %d", rootSends)
	}
	if !rootCrit {
		t.Error("root's consumer-critical flag not set by client demands")
	}
	e.ResetCounters(r.tree.Root())
	if _, s, _ := e.Counters(r.tree.Root()); s != 0 {
		t.Error("ResetCounters did not reset")
	}
}

func TestNeighborHostTracksMoves(t *testing.T) {
	r := newRig(2, 6, 64*1024, 64*1024)
	e := r.engine(nil)
	op := r.tree.Operators()[0]
	moved := false
	e.SetWindowHook(func(p *sim.Proc, id plan.NodeID, iter int) (netmodel.HostID, bool) {
		if !moved && iter == 2 {
			moved = true
			return 1, true
		}
		return 0, false
	})
	r.run(t, e)
	// The client's view of its producer should have caught up via the
	// MoveNotice.
	if got := e.NeighborHost(r.tree.ClientNode(), op); got != 1 {
		t.Errorf("client's view of op host = %d, want 1", got)
	}
	// The servers' view of their consumer likewise (from demand fromAddr).
	for _, s := range r.tree.Servers() {
		if got := e.NeighborHost(s, op); got != 1 {
			t.Errorf("server %d's view of op host = %d, want 1", s, got)
		}
	}
}
