// Package estacc is the estimator-accuracy observability layer: it joins
// every bandwidth estimate a placement optimiser consumes (through
// monitor.EstimateDetail) to the ground truth the network model actually
// delivered over the estimate's validity window, and emits the join as
// telemetry — per-(link, consumer) estimate-used events carrying the signed
// relative error inputs, estimate age, provenance and probe cost, plus
// regime-change detection events against the trace's seeded >= 10 %
// change-point schedule (trace.ChangePoints).
//
// The layer is strictly observational: Consumed reads the kernel clock, the
// link traces and its own state, and emits events — it never holds, sends or
// schedules, so a run with the tracker attached is byte-identical to the
// same run without it (see the on/off property test in internal/core). With
// telemetry disabled every hook is a zero-allocation early return.
package estacc

import (
	"math"
	"time"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// minValidityWindow floors the truth-averaging window so an estimate used at
// the very edge of its T_thres lifetime is still compared against a
// non-degenerate stretch of ground truth.
const minValidityWindow = time.Second

// linkState is the per-link regime-detection cursor: the seeded ground-truth
// change-point schedule and the index of the next undetected change.
type linkState struct {
	cps  []trace.ChangePoint
	next int
}

// Tracker joins consumed estimates to ground truth for one simulated
// network. A nil *Tracker is valid everywhere and records nothing, so
// callers thread it unconditionally. The non-nil tracker is also inert when
// the kernel has no telemetry sink: its hooks return before touching any
// state, allocation-free.
type Tracker struct {
	net    *netmodel.Network
	k      *sim.Kernel // nil unless the kernel has a live telemetry sink
	tthres time.Duration
	links  map[[2]netmodel.HostID]*linkState
}

// New builds a tracker over the network's ground truth, reading the validity
// window (T_thres) from the monitoring system's configuration. The tracker
// arms itself only if the network's kernel has a telemetry sink attached —
// estimator-accuracy events are pure telemetry, so without a sink there is
// nothing to do.
func New(net *netmodel.Network, mon *monitor.System) *Tracker {
	t := &Tracker{net: net, tthres: mon.Config().TThres}
	if k := net.Kernel(); k.Telemetry() != nil {
		t.k = k
		t.links = make(map[[2]netmodel.HostID]*linkState)
	}
	return t
}

// Consumed records that a placement decision (seq, algorithm alg) consumed
// the estimate est of the (a, b) link as seen from viewer. info is the
// attribution monitor.EstimateDetail returned for the estimate. The call
// joins the estimate to the ground-truth mean bandwidth over the estimate's
// remaining validity window — [now, now+W) with W = max(T_thres - age, 1 s)
// — emits a KindEstimateUsed event, and advances the link's regime-change
// detector: the first estimate whose underlying measurement postdates a true
// >= 10 % change point detects it (lag = now - change time); when several
// change points have passed, the newest supersedes the older ones.
//
// Same-host lookups are ignored (no link), and a disabled tracker returns
// immediately without allocating.
func (t *Tracker) Consumed(viewer, a, b netmodel.HostID, est trace.Bandwidth,
	info monitor.EstimateInfo, seq int64, alg string) {
	if t == nil || t.k == nil {
		return
	}
	if a == b || info.Prov == monitor.ProvLocal {
		return
	}
	if a > b {
		a, b = b, a
	}
	now := t.k.Now()
	age := now.Sub(info.MeasuredAt)
	window := t.tthres - age
	if window < minValidityWindow {
		window = minValidityWindow
	}
	truth := t.net.TruthWindow(a, b, now, window)
	t.k.Emit(telemetry.Event{
		Kind: telemetry.KindEstimateUsed,
		Host: int32(a), Peer: int32(b), Node: int32(viewer),
		Value: float64(est), Bytes: int64(math.Round(float64(truth))),
		Dur: int64(age), Wait: int64(window), Startup: int64(info.ProbeCost),
		Seq: seq, Name: alg, Aux: info.Prov.String(),
	})
	t.detect(viewer, a, b, info.MeasuredAt, now, seq)
}

// detect advances the (a, b) link's change-point cursor: every change point
// at or before the estimate's measurement time is reflected by this
// estimate; the newest of them is reported as detected (with its lag) and
// any older ones it overtook are superseded: never reported.
func (t *Tracker) detect(viewer, a, b netmodel.HostID, measuredAt, now sim.Time, seq int64) {
	ls, ok := t.links[[2]netmodel.HostID{a, b}]
	if !ok {
		ls = &linkState{cps: t.net.Link(a, b).ChangePoints()}
		t.links[[2]netmodel.HostID{a, b}] = ls
	}
	if ls.next >= len(ls.cps) || measuredAt < ls.cps[ls.next].At {
		return
	}
	last := ls.next
	for last+1 < len(ls.cps) && measuredAt >= ls.cps[last+1].At {
		last++
	}
	cp := ls.cps[last]
	ls.next = last + 1
	dir := "up"
	if cp.To < cp.From {
		dir = "down"
	}
	//lint:allow-unguarded only reachable from Consumed, which returns before the join when the tracker is disarmed
	t.k.Emit(telemetry.Event{
		Kind: telemetry.KindRegimeDetected,
		Host: int32(a), Peer: int32(b), Node: int32(viewer),
		Dur:   int64(now.Sub(cp.At)),
		Value: float64(cp.To), Bytes: int64(math.Round(float64(cp.From))),
		Seq: seq, Aux: dir,
	})
}
