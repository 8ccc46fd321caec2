package netmodel

import (
	"fmt"
	"math"
	"testing"
	"time"

	"wadc/internal/sim"
	"wadc/internal/trace"
)

// newPair builds a 2-host network with a constant-bandwidth link.
func newPair(t *testing.T, bw trace.Bandwidth) (*sim.Kernel, *Network, *Host, *Host) {
	t.Helper()
	k := sim.NewKernel()
	n := NewNetwork(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.SetLink(a.ID(), b.ID(), trace.Constant("ab", bw))
	return k, n, a, b
}

func TestSendTimingConstantBandwidth(t *testing.T) {
	k, n, a, b := newPair(t, 16*1024) // 16 KB/s
	var deliveredAt sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "data", Size: 16 * 1024, Prio: sim.PriorityData})
	})
	k.Spawn("recv", func(p *sim.Proc) {
		msg := b.Port("data").Recv(p).(*Message)
		deliveredAt = p.Now()
		if msg.SentAt != 0 {
			t.Errorf("SentAt = %v", msg.SentAt)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 50 ms startup + 1 s payload.
	want := sim.FromDuration(1050 * time.Millisecond)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if n.Transfers() != 1 || n.BytesMoved() != 16*1024 {
		t.Errorf("accounting: %d transfers, %d bytes", n.Transfers(), n.BytesMoved())
	}
}

func TestSendLocalIsInstant(t *testing.T) {
	k, n, a, _ := newPair(t, 1024)
	var deliveredAt sim.Time = -1
	k.Spawn("sender", func(p *sim.Proc) {
		p.Hold(time.Second)
		n.Send(p, &Message{Src: a.ID(), Dst: a.ID(), Port: "loop", Size: 1 << 30, Prio: sim.PriorityData})
	})
	k.Spawn("recv", func(p *sim.Proc) {
		a.Port("loop").Recv(p)
		deliveredAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if deliveredAt != sim.Second {
		t.Errorf("local delivery at %v, want 1s", deliveredAt)
	}
	if n.Transfers() != 0 {
		t.Errorf("local send counted as network transfer")
	}
}

func TestNICSerializesSenders(t *testing.T) {
	// Two hosts send to the same receiver; its single NIC serialises them.
	k := sim.NewKernel()
	n := NewNetwork(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	c := n.AddHost("c")
	n.SetLink(a.ID(), c.ID(), trace.Constant("ac", 10*1024))
	n.SetLink(b.ID(), c.ID(), trace.Constant("bc", 10*1024))
	var arrivals []sim.Time
	send := func(name string, src HostID) {
		k.Spawn(name, func(p *sim.Proc) {
			n.Send(p, &Message{Src: src, Dst: c.ID(), Port: "d", Size: 10 * 1024, Prio: sim.PriorityData})
		})
	}
	send("sa", a.ID())
	send("sb", b.ID())
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			c.Port("d").Recv(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each transfer takes 1.05 s; they cannot overlap at c.
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	first := sim.FromDuration(1050 * time.Millisecond)
	if arrivals[0] != first || arrivals[1] != 2*first {
		t.Errorf("arrivals = %v, want [%v %v]", arrivals, first, 2*first)
	}
}

func TestBarrierOvertakesQueuedData(t *testing.T) {
	k, n, a, b := newPair(t, 1024)
	var order []string
	// Sender 1 occupies the link with a big transfer; then a data message
	// and a barrier message queue up. The barrier must win.
	k.Spawn("bulk", func(p *sim.Proc) {
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "d", Size: 10 * 1024, Prio: sim.PriorityData, Payload: "bulk"})
	})
	k.Spawn("data2", func(p *sim.Proc) {
		p.Hold(time.Second)
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "d", Size: 1024, Prio: sim.PriorityData, Payload: "data2"})
	})
	k.Spawn("barrier", func(p *sim.Proc) {
		p.Hold(2 * time.Second)
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "d", Size: 128, Prio: sim.PriorityBarrier, Payload: "barrier"})
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, b.Port("d").Recv(p).(*Message).Payload.(string))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "[bulk barrier data2]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestCrossingTransfersNoDeadlock(t *testing.T) {
	// a->b and b->a at the same instant: ordered NIC acquisition must not
	// deadlock, and both must complete (serialised on the shared NICs).
	k, n, a, b := newPair(t, 1024)
	done := 0
	k.Spawn("ab", func(p *sim.Proc) {
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "d", Size: 1024, Prio: sim.PriorityData})
		done++
	})
	k.Spawn("ba", func(p *sim.Proc) {
		n.Send(p, &Message{Src: b.ID(), Dst: a.ID(), Port: "d", Size: 1024, Prio: sim.PriorityData})
		done++
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if k.Now() != sim.FromDuration(2100*time.Millisecond) {
		t.Errorf("finished at %v, want 2.1s (serialised)", k.Now())
	}
}

func TestThreeWayCycleNoDeadlock(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	hosts := make([]*Host, 3)
	for i := range hosts {
		hosts[i] = n.AddHost(fmt.Sprintf("h%d", i))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			n.SetLink(hosts[i].ID(), hosts[j].ID(), trace.Constant("l", 1024))
		}
	}
	done := 0
	for i := 0; i < 3; i++ {
		src, dst := HostID(i), HostID((i+1)%3)
		k.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			n.Send(p, &Message{Src: src, Dst: dst, Port: "d", Size: 1024, Prio: sim.PriorityData})
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
}

func TestTransferSpansBandwidthChange(t *testing.T) {
	// Link speed drops from 2048 to 512 B/s at t=1s; a transfer started at
	// t=0 with startup 50ms transfers 0.95s at 2048 (=1945.6B) then the rest
	// at 512 B/s.
	k := sim.NewKernel()
	n := NewNetwork(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.SetLink(a.ID(), b.ID(), trace.New("drop", sim.Second, []trace.Bandwidth{2048, 512}))
	var doneAt sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "d", Size: 2458, Prio: sim.PriorityData})
		doneAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Payload: 0.95s * 2048 = 1945.6 B; remaining 512.4 B at 512 B/s = 1.0008s.
	want := 50*time.Millisecond + 950*time.Millisecond + time.Duration(512.4/512*float64(time.Second))
	if math.Abs(float64(doneAt-sim.FromDuration(want))) > float64(sim.Millisecond) {
		t.Errorf("doneAt = %v, want ~%v", doneAt, sim.FromDuration(want))
	}
}

func TestDiskAndCompute(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	h := n.AddHost("h")
	var diskDone, cpuDone sim.Time
	k.Spawn("disk", func(p *sim.Proc) {
		h.ReadDisk(p, 3*1024*1024) // 1 s at 3MB/s
		diskDone = p.Now()
	})
	k.Spawn("cpu1", func(p *sim.Proc) {
		h.Compute(p, 2*time.Second)
	})
	k.Spawn("cpu2", func(p *sim.Proc) {
		h.Compute(p, 2*time.Second)
		cpuDone = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if diskDone != sim.Second {
		t.Errorf("disk done at %v, want 1s", diskDone)
	}
	if cpuDone != 4*sim.Second {
		t.Errorf("cpu2 done at %v, want 4s (CPU contention)", cpuDone)
	}
}

type recordingObserver struct {
	sends    int
	delivers int
	lastDur  time.Duration
	lastMsg  *Message
}

func (r *recordingObserver) BeforeSend(msg *Message) {
	r.sends++
	msg.Piggyback = "attached"
}
func (r *recordingObserver) AfterDeliver(msg *Message, d time.Duration) {
	r.delivers++
	r.lastDur = d
	r.lastMsg = msg
}

func TestObserverHooks(t *testing.T) {
	k, n, a, b := newPair(t, 16*1024)
	obs := &recordingObserver{}
	n.Observe(obs)
	k.Spawn("s", func(p *sim.Proc) {
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "d", Size: 16 * 1024, Prio: sim.PriorityData})
	})
	k.Spawn("r", func(p *sim.Proc) {
		msg := b.Port("d").Recv(p).(*Message)
		if msg.Piggyback != "attached" {
			t.Errorf("piggyback = %v", msg.Piggyback)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if obs.sends != 1 || obs.delivers != 1 {
		t.Errorf("observer calls: %d sends, %d delivers", obs.sends, obs.delivers)
	}
	if got := n.MeasuredBandwidth(16*1024, obs.lastDur); math.Abs(float64(got)-16*1024) > 1 {
		t.Errorf("measured bandwidth = %v, want 16KB/s", got)
	}
}

func TestMeasuredBandwidthDegenerate(t *testing.T) {
	n := NewNetwork(sim.NewKernel())
	if got := n.MeasuredBandwidth(1024, 10*time.Millisecond); got != 0 {
		t.Errorf("sub-startup duration should measure 0, got %v", got)
	}
}

func TestSetLinkValidation(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	a := n.AddHost("a")
	defer func() {
		if recover() == nil {
			t.Error("self-link did not panic")
		}
	}()
	n.SetLink(a.ID(), a.ID(), trace.Constant("x", 1))
}

func TestSendMissingLinkPanics(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	k.Spawn("s", func(p *sim.Proc) {
		n.Send(p, &Message{Src: a.ID(), Dst: b.ID(), Port: "d", Size: 1, Prio: sim.PriorityData})
	})
	if err := k.Run(); err == nil {
		t.Error("send over missing link did not error")
	}
}

func TestBandwidthAtOracle(t *testing.T) {
	k, n, a, b := newPair(t, 4096)
	_ = k
	if got := n.BandwidthAt(a.ID(), b.ID(), 0); got != 4096 {
		t.Errorf("BandwidthAt = %v", got)
	}
	if got := n.BandwidthAt(b.ID(), a.ID(), 0); got != 4096 {
		t.Errorf("BandwidthAt reversed = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("missing link oracle did not panic")
		}
	}()
	n.BandwidthAt(0, 99, 0)
}

func TestHostAccessors(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	h := n.AddHost("x")
	if h.Name() != "x" || h.ID() != 0 || n.NumHosts() != 1 || n.Host(0) != h {
		t.Error("accessors wrong")
	}
	if h.Port("p") != h.Port("p") {
		t.Error("Port not memoised")
	}
	if k2 := n.Kernel(); k2 != k {
		t.Error("Kernel accessor wrong")
	}
}

// TestTruthWindow pins the oracle the estimator-accuracy layer judges
// estimates against: the mean bandwidth over [from, from+window), stepwise
// across trace samples, degrading to a point read for empty windows — and
// allocation-free, since it runs on the placement hot path.
func TestTruthWindow(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	// 100 B/s for 10s, then 300 B/s: the mean over [5s, 15s) is 200 B/s.
	tr := trace.New("step", 10*sim.Second, []trace.Bandwidth{100, 300})
	n.SetLink(a.ID(), b.ID(), tr)

	if got := n.TruthWindow(0, 1, 5*sim.Second, 10*time.Second); math.Abs(float64(got)-200) > 1 {
		t.Errorf("stepwise mean = %v, want ~200", got)
	}
	if got := n.TruthWindow(0, 1, 2*sim.Second, 4*time.Second); math.Abs(float64(got)-100) > 1 {
		t.Errorf("within-sample mean = %v, want ~100", got)
	}
	if got := n.TruthWindow(0, 1, 15*sim.Second, 0); got != 300 {
		t.Errorf("empty window = %v, want point read 300", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		n.TruthWindow(0, 1, 5*sim.Second, 10*time.Second)
	}); allocs != 0 {
		t.Errorf("TruthWindow allocates %.0f/op, want 0", allocs)
	}
}
