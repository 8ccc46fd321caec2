package estacc

import (
	"math"
	"testing"
	"time"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// rig is a 2-host network with one generated link, a monitoring system at
// the paper's defaults, and (optionally) a telemetry recorder on the kernel.
type rig struct {
	k   *sim.Kernel
	net *netmodel.Network
	mon *monitor.System
	rec *telemetry.Recorder
	tr  *Tracker
}

func newRig(withSink bool, link *trace.Trace) *rig {
	r := &rig{k: sim.NewKernel()}
	if withSink {
		r.rec = telemetry.NewRecorder()
		r.k.AddSink(r.rec)
	}
	r.net = netmodel.NewNetwork(r.k)
	a := r.net.AddHost("a")
	b := r.net.AddHost("b")
	r.net.SetLink(a.ID(), b.ID(), link)
	r.mon = monitor.NewSystem(r.net, monitor.DefaultConfig())
	r.tr = New(r.net, r.mon)
	return r
}

func genLink(seed int64) *trace.Trace {
	return trace.Generate("est", seed, trace.KBps(64), trace.StudySwitchProb)
}

// TestConsumedJoinsGroundTruth pins the full join: one consumption emits one
// KindEstimateUsed event whose truth is the trace mean over the remaining
// validity window, with age, provenance, probe cost and decision identity
// attached.
func TestConsumedJoinsGroundTruth(t *testing.T) {
	link := genLink(3)
	r := newRig(true, link)
	now := 100 * sim.Second
	measured := 90 * sim.Second // age 10s, window = 40s - 10s = 30s
	r.k.At(now, func() {
		r.tr.Consumed(1, 0, 1, 5000, monitor.EstimateInfo{
			Prov: monitor.ProvFreshCache, MeasuredAt: measured,
		}, 7, "global")
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	var evs []telemetry.Event
	for _, ev := range r.rec.Events() {
		if ev.Kind == telemetry.KindEstimateUsed {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 1 {
		t.Fatalf("estimate-used events = %d, want 1", len(evs))
	}
	ev := evs[0]
	window := 30 * time.Second
	truth := int64(math.Round(float64(r.net.TruthWindow(0, 1, now, window))))
	if ev.Host != 0 || ev.Peer != 1 || ev.Node != 1 {
		t.Errorf("link/viewer = %d<->%d seen by %d", ev.Host, ev.Peer, ev.Node)
	}
	if ev.Value != 5000 || ev.Bytes != truth {
		t.Errorf("est=%v truth=%d, want 5000/%d", ev.Value, ev.Bytes, truth)
	}
	if ev.Dur != int64(10*time.Second) || ev.Wait != int64(window) {
		t.Errorf("age=%d window=%d, want 10s/30s", ev.Dur, ev.Wait)
	}
	if ev.Seq != 7 || ev.Name != "global" || ev.Aux != "fresh-cache" {
		t.Errorf("decision identity = seq %d alg %q prov %q", ev.Seq, ev.Name, ev.Aux)
	}
}

// TestValidityWindowFloored: an estimate older than T_thres is still judged
// against a non-degenerate (1 s) stretch of truth.
func TestValidityWindowFloored(t *testing.T) {
	r := newRig(true, genLink(4))
	r.k.At(60*sim.Second, func() {
		r.tr.Consumed(0, 0, 1, 1000, monitor.EstimateInfo{
			Prov: monitor.ProvStaleFallback, MeasuredAt: 5 * sim.Second,
		}, 1, "local")
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range r.rec.Events() {
		if ev.Kind == telemetry.KindEstimateUsed {
			if ev.Wait != int64(time.Second) {
				t.Errorf("window = %d, want floored to 1s", ev.Wait)
			}
			if ev.Dur != int64(55*time.Second) {
				t.Errorf("age = %d, want 55s", ev.Dur)
			}
			return
		}
	}
	t.Fatal("no estimate-used event")
}

// TestProbeCostAccrues: every probe-provenance consumption carries the
// simulated time spent waiting on its probe, so the stream sums to the
// total probe cost.
func TestProbeCostAccrues(t *testing.T) {
	r := newRig(true, genLink(5))
	r.k.At(sim.Second, func() {
		for i := 0; i < 3; i++ {
			r.tr.Consumed(0, 0, 1, 2000, monitor.EstimateInfo{
				Prov: monitor.ProvProbe, MeasuredAt: sim.Second, ProbeCost: 2100 * time.Millisecond,
			}, int64(i), "global")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	var used int
	var cost time.Duration
	for _, ev := range r.rec.Events() {
		if ev.Kind == telemetry.KindEstimateUsed {
			used++
			cost += time.Duration(ev.Startup)
		}
	}
	if used != 3 || cost != 3*2100*time.Millisecond {
		t.Errorf("%d estimate-used events with probe cost %v, want 3 with 6.3s", used, cost)
	}
}

// TestDetectionLagAgainstSchedule checks regime detection against the
// trace's own seeded change-point schedule: the first estimate whose
// measurement postdates a true >= 10 % change detects it with lag
// now - changeTime; passing several change points at once reports only the
// newest (the overtaken ones are superseded); already-detected changes are
// never re-reported.
func TestDetectionLagAgainstSchedule(t *testing.T) {
	link := genLink(6)
	cps := link.ChangePoints()
	if len(cps) < 3 {
		t.Fatalf("trace has %d change points, need >= 3", len(cps))
	}
	r := newRig(true, link)
	now1 := cps[0].At + 7*sim.Second
	now2 := cps[2].At + 3*sim.Second
	r.k.At(now1, func() {
		// Measurement postdates cps[0] but not cps[1]: detects exactly cps[0].
		r.tr.Consumed(0, 0, 1, 100, monitor.EstimateInfo{
			Prov: monitor.ProvFreshCache, MeasuredAt: cps[0].At,
		}, 1, "global")
	})
	r.k.At(now2, func() {
		// Measurement postdates cps[1] and cps[2]: cps[2] detected, cps[1]
		// superseded.
		r.tr.Consumed(0, 0, 1, 100, monitor.EstimateInfo{
			Prov: monitor.ProvFreshCache, MeasuredAt: cps[2].At,
		}, 2, "global")
		// A second estimate over the same ground: cursor already past, no
		// further detection.
		r.tr.Consumed(0, 0, 1, 100, monitor.EstimateInfo{
			Prov: monitor.ProvFreshCache, MeasuredAt: cps[2].At,
		}, 3, "global")
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	var dets []telemetry.Event
	for _, ev := range r.rec.Events() {
		if ev.Kind == telemetry.KindRegimeDetected {
			dets = append(dets, ev)
		}
	}
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2", len(dets))
	}
	for i, want := range []struct {
		cp  trace.ChangePoint
		now sim.Time
	}{{cps[0], now1}, {cps[2], now2}} {
		ev := dets[i]
		if ev.Dur != int64(want.now.Sub(want.cp.At)) {
			t.Errorf("detection %d lag = %d, want %v", i, ev.Dur, want.now.Sub(want.cp.At))
		}
		if ev.Value != float64(want.cp.To) || ev.Bytes != int64(math.Round(float64(want.cp.From))) {
			t.Errorf("detection %d levels = %v<-%d, want %v<-%v", i, ev.Value, ev.Bytes, want.cp.To, want.cp.From)
		}
		dir := "up"
		if want.cp.To < want.cp.From {
			dir = "down"
		}
		if ev.Aux != dir {
			t.Errorf("detection %d dir = %q, want %q", i, ev.Aux, dir)
		}
	}
}

// TestSameHostAndLocalIgnored: there is no link (and so no truth) to judge a
// same-host lookup against.
func TestSameHostAndLocalIgnored(t *testing.T) {
	r := newRig(true, genLink(7))
	r.k.At(sim.Second, func() {
		r.tr.Consumed(0, 1, 1, 100, monitor.EstimateInfo{Prov: monitor.ProvFreshCache}, 1, "global")
		r.tr.Consumed(0, 0, 1, 100, monitor.EstimateInfo{Prov: monitor.ProvLocal}, 2, "global")
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range r.rec.Events() {
		if ev.Kind == telemetry.KindEstimateUsed || ev.Kind == telemetry.KindRegimeDetected {
			t.Fatalf("unexpected %v event", ev.Kind)
		}
	}
}

// TestDisabledPathsZeroAlloc: a nil tracker and a tracker on a kernel
// without a telemetry sink must both make Consumed a free no-op — the
// disabled observability layer may not add allocations to the placement hot
// path.
func TestDisabledPathsZeroAlloc(t *testing.T) {
	off := newRig(false, genLink(8))
	var nilTr *Tracker
	info := monitor.EstimateInfo{Prov: monitor.ProvFreshCache, MeasuredAt: sim.Second}
	for name, tr := range map[string]*Tracker{"nil": nilTr, "no-sink": off.tr} {
		if n := testing.AllocsPerRun(100, func() {
			tr.Consumed(0, 0, 1, 100, info, 1, "global")
		}); n != 0 {
			t.Errorf("%s tracker Consumed allocates %.0f/op, want 0", name, n)
		}
	}
}
