package monitor

import (
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// newProbeRig builds a 3-host network with constant links and ProbeNetwork
// monitoring.
func newProbeRig(t *testing.T, bw trace.Bandwidth) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	r := &rig{k: k, net: net}
	for i := 0; i < 3; i++ {
		r.h = append(r.h, net.AddHost(string(rune('a'+i))))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			net.SetLink(r.h[i].ID(), r.h[j].ID(), trace.Constant("l", bw))
		}
	}
	cfg := DefaultConfig()
	cfg.ProbeMode = ProbeNetwork
	r.sys = NewSystem(net, cfg)
	return r
}

func TestNetworkProbeRemoteViewer(t *testing.T) {
	r := newProbeRig(t, 32*1024)
	var got trace.Bandwidth
	var elapsed sim.Time
	r.k.Spawn("requester", func(p *sim.Proc) {
		// Host 2 asks for the (0, 1) bandwidth: exec goes to host 0's demon,
		// which pings host 1 and reports back.
		got, _ = r.sys.EstimateDetail(p, 2, 0, 1)
		elapsed = p.Now()
		r.k.Stop()
	})
	if err := r.k.Run(); err != nil && err != sim.ErrStopped {
		t.Fatalf("Run: %v", err)
	}
	// Measured bandwidth should be close to 32 KB/s (the passive
	// measurement excludes the startup cost exactly).
	if got < 31*1024 || got > 33*1024 {
		t.Errorf("probed bandwidth = %v, want ~32KB/s", got)
	}
	// The probe took real simulated time: exec (256 B) + ping (16 KB) +
	// pong (16 KB) + report (256 B), each with 50 ms startup.
	if elapsed < sim.Second {
		t.Errorf("probe finished suspiciously fast: %v", elapsed)
	}
	if r.sys.Probes() != 1 {
		t.Errorf("probes = %d", r.sys.Probes())
	}
	// Both endpoints learned the value passively.
	for _, h := range []netmodel.HostID{0, 1} {
		if _, ok := r.sys.Cache(h).LookupAny(0, 1); !ok {
			t.Errorf("host %d missing passive measurement", h)
		}
	}
}

func TestNetworkProbeLocalViewer(t *testing.T) {
	r := newProbeRig(t, 32*1024)
	var got trace.Bandwidth
	r.k.Spawn("requester", func(p *sim.Proc) {
		// Host 0 asks about its own link to 1: the demon is co-located, the
		// passive measurement lands directly in host 0's cache.
		got, _ = r.sys.EstimateDetail(p, 0, 0, 1)
		r.k.Stop()
	})
	if err := r.k.Run(); err != nil && err != sim.ErrStopped {
		t.Fatalf("Run: %v", err)
	}
	if got < 31*1024 || got > 33*1024 {
		t.Errorf("probed bandwidth = %v, want ~32KB/s", got)
	}
}

func TestNetworkProbesContendWithData(t *testing.T) {
	// A probe through a busy NIC must wait: issue a bulk transfer 0->1 and a
	// probe of (0, 1) at the same time; the probe's ping queues behind it.
	r := newProbeRig(t, 32*1024)
	var probeDone sim.Time
	r.k.Spawn("bulk", func(p *sim.Proc) {
		r.net.Send(p, &netmodel.Message{Src: 0, Dst: 1, Port: "d", Size: 256 * 1024, Prio: sim.PriorityData})
	})
	r.k.Spawn("requester", func(p *sim.Proc) {
		r.sys.EstimateDetail(p, 2, 0, 1)
		probeDone = p.Now()
		r.k.Stop()
	})
	if err := r.k.Run(); err != nil && err != sim.ErrStopped {
		t.Fatalf("Run: %v", err)
	}
	// The bulk transfer alone takes 8s+; the probe cannot complete before
	// the ping got through after it.
	if probeDone < 8*sim.Second {
		t.Errorf("probe finished at %v, should have queued behind bulk data", probeDone)
	}
}

func TestEnableNetworkProbesIdempotent(t *testing.T) {
	r := newProbeRig(t, 32*1024)
	r.sys.EnableNetworkProbes() // second call must not double-spawn demons
	done := false
	r.k.Spawn("requester", func(p *sim.Proc) {
		r.sys.EstimateDetail(p, 2, 0, 1)
		done = true
		r.k.Stop()
	})
	if err := r.k.Run(); err != nil && err != sim.ErrStopped {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Error("probe did not complete")
	}
}

func TestConcurrentNetworkProbes(t *testing.T) {
	// Two requesters probe different links concurrently; both must resolve.
	r := newProbeRig(t, 64*1024)
	done := 0
	for i := 0; i < 2; i++ {
		a, b := netmodel.HostID(i), netmodel.HostID((i+1)%3)
		viewer := netmodel.HostID((i + 2) % 3)
		r.k.Spawn("req", func(p *sim.Proc) {
			r.sys.EstimateDetail(p, viewer, a, b)
			done++
			if done == 2 {
				r.k.Stop()
			}
		})
	}
	if err := r.k.Run(); err != nil && err != sim.ErrStopped {
		t.Fatalf("Run: %v", err)
	}
	if done != 2 {
		t.Errorf("done = %d", done)
	}
}
