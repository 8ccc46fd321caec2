package placement

import (
	"fmt"
	"testing"
	"time"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// recSink collects every event it is handed.
type recSink struct{ events []telemetry.Event }

func (s *recSink) Emit(ev telemetry.Event) { s.events = append(s.events, ev) }

func (s *recSink) ofKind(k telemetry.Kind) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range s.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestAuditorNilSafe: a nil *Auditor must accept every call and report zero
// stats, so un-audited call paths (a zero Decision) stay clean.
func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.Bind(sim.NewKernel(), "x")
	d := a.StartDecision(0, 0)
	d.Bandwidth(0, 1, 1e6, monitor.ProvFreshCache)
	d.Path(1.0, []plan.NodeID{1, 2})
	d.Candidate(1, 0, 1, 0, 1.0, false)
	d.Move(1, 0, 1, 0.5)
	d.End(1.0, 3)
	if a.Stats() != (DecisionStats{}) {
		t.Fatalf("nil auditor stats = %+v, want zero", a.Stats())
	}
}

// TestAuditorCountsWithoutTelemetry: DecisionStats accumulate even when no
// sink is installed, so RunResult.Decisions is populated in plain runs.
func TestAuditorCountsWithoutTelemetry(t *testing.T) {
	var a Auditor
	a.Bind(sim.NewKernel(), "global") // kernel without telemetry
	d := a.StartDecision(3, -1)
	d.Candidate(1, 0, 1, 0, 2.0, false)
	d.Candidate(1, 0, 2, 0, 1.5, false)
	d.Move(1, 0, 2, 0.5)
	d.End(1.5, 2)
	got := a.Stats()
	want := DecisionStats{Decisions: 1, Candidates: 2, Moves: 1, PredictedGain: 0.5}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestAuditorDisabledZeroAlloc enforces the §8 guard-before-construct
// contract on the placement hot path: with telemetry disabled, a full
// decision record costs zero allocations.
func TestAuditorDisabledZeroAlloc(t *testing.T) {
	var a Auditor
	a.Bind(sim.NewKernel(), "local")
	path := []plan.NodeID{1, 2, 3}
	allocs := testing.AllocsPerRun(200, func() {
		d := a.StartDecision(1, 4)
		d.Bandwidth(0, 1, 1e6, monitor.ProvProbe)
		d.Path(2.5, path)
		d.Candidate(2, 0, 1, 0, 2.0, true)
		d.Move(2, 0, 1, 0.5)
		d.End(2.0, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled-telemetry decision record allocated %.1f times per run, want 0", allocs)
	}
}

// TestAuditorEmitsDecisionRecord: with a sink installed, one decision emits
// the full Seq-correlated record with the documented field packing.
func TestAuditorEmitsDecisionRecord(t *testing.T) {
	sink := &recSink{}
	k := sim.NewKernel(sim.WithTelemetry(sink))
	var a Auditor
	a.Bind(k, "global")

	d := a.StartDecision(7, -1)
	seq := d.Seq()
	d.Bandwidth(0, 1, 2e6, monitor.ProvFreshCache)
	d.Bandwidth(1, 2, 3e6, monitor.ProvProbe)
	d.Path(4.5, []plan.NodeID{0, 4, 6})
	d.Candidate(4, 1, 2, 3, 4.0, false)
	d.Move(4, 1, 2, 0.5)
	d.End(4.0, 1)

	wantKinds := []telemetry.Kind{
		telemetry.KindDecisionStart,
		telemetry.KindDecisionBandwidth, telemetry.KindDecisionBandwidth,
		telemetry.KindDecisionPath,
		telemetry.KindDecisionCandidate,
		telemetry.KindDecisionMove,
		telemetry.KindDecisionEnd,
	}
	if len(sink.events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(sink.events), len(wantKinds))
	}
	for i, ev := range sink.events {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if ev.Seq != seq {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, seq)
		}
	}
	start := sink.events[0]
	if start.Host != 7 || start.Iter != -1 || start.Aux != "global" {
		t.Errorf("decision-start = %+v", start)
	}
	if bw := sink.events[1]; bw.Aux != "fresh-cache" || bw.Value != 2e6 {
		t.Errorf("cached bandwidth = %+v", bw)
	}
	if bw := sink.events[2]; bw.Aux != "probe" || bw.Value != 3e6 {
		t.Errorf("probed bandwidth = %+v", bw)
	}
	if pathEv := sink.events[3]; pathEv.Name != "0,4,6" || pathEv.Value != 4.5 {
		t.Errorf("decision-path = %+v", pathEv)
	}
	if cand := sink.events[4]; cand.Node != 4 || cand.Host != 1 || cand.Peer != 2 || cand.Iter != 3 || cand.Value != 4.0 {
		t.Errorf("decision-candidate = %+v", cand)
	}
	if mv := sink.events[5]; mv.Node != 4 || mv.Host != 1 || mv.Peer != 2 || mv.Value != 0.5 {
		t.Errorf("decision-move = %+v", mv)
	}
	if end := sink.events[6]; end.Value != 4.0 || end.Bytes != 1 {
		t.Errorf("decision-end = %+v", end)
	}

	if next := a.StartDecision(7, 0); next.Seq() != seq+1 {
		t.Fatalf("second decision seq = %d, want %d", next.Seq(), seq+1)
	}
}

// TestAuditedSnapshotRecordsProvenance: the audited bandwidth snapshot
// reports cache hits vs probes, one event per distinct link.
func TestAuditedSnapshotRecordsProvenance(t *testing.T) {
	sink := &recSink{}
	r := rebuildRig(t, sim.NewKernel(sim.WithTelemetry(sink)), 4, 4)
	x := r.inst

	var events []telemetry.Event
	r.k.Spawn("snap", func(p *sim.Proc) {
		var a Auditor
		a.Bind(p.Kernel(), "one-shot")
		d := a.StartDecision(x.ClientHost, -1)
		bw := x.AuditedSnapshotBW(p, x.ClientHost, d)
		bw(0, 1)
		bw(1, 0) // memoised: same link, no second event
		bw(0, 2)
		events = sink.ofKind(telemetry.KindDecisionBandwidth)
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d bandwidth events, want 2 (memoised lookups must not re-emit)", len(events))
	}
	for _, ev := range events {
		if ev.Aux != "probe" {
			t.Errorf("cold cache lookup provenance = %q, want probe: %+v", ev.Aux, ev)
		}
		if ev.Value <= 0 {
			t.Errorf("bandwidth value = %v, want > 0", ev.Value)
		}
	}
}

// TestPoliciesEmitDecisionRecords runs each audited policy end-to-end and
// checks the event stream contains well-formed decision records.
func TestPoliciesEmitDecisionRecords(t *testing.T) {
	cases := []struct {
		name   string
		policy func() Policy
	}{
		{"one-shot", func() Policy { return OneShot{} }},
		{"global", func() Policy { return &Global{Period: 30 * time.Second} }},
		{"local", func() Policy { return &Local{Period: 30 * time.Second, Extra: 2, Seed: 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &recSink{}
			r := rebuildRig(t, sim.NewKernel(sim.WithTelemetry(sink)), 4, 12)
			p := tc.policy()
			r.run(t, p)

			starts := sink.ofKind(telemetry.KindDecisionStart)
			ends := sink.ofKind(telemetry.KindDecisionEnd)
			if len(starts) == 0 {
				t.Fatal("no decision-start events")
			}
			if len(starts) != len(ends) {
				t.Fatalf("%d starts vs %d ends: records must be balanced", len(starts), len(ends))
			}
			for i, s := range starts {
				if s.Aux != tc.name {
					t.Errorf("decision-start %d algorithm = %q, want %q", i, s.Aux, tc.name)
				}
			}
			// Every decision must carry a critical path and at least one
			// candidate or a no-op end.
			if len(sink.ofKind(telemetry.KindDecisionPath)) == 0 {
				t.Error("no decision-path events")
			}
			if len(sink.ofKind(telemetry.KindDecisionCandidate)) == 0 {
				t.Error("no decision-candidate events")
			}
			// Seq values never repeat across decisions of one policy.
			seen := map[int64]bool{}
			for _, s := range starts {
				if seen[s.Seq] {
					t.Errorf("duplicate decision Seq %d", s.Seq)
				}
				seen[s.Seq] = true
			}
			// Stats agree with the event stream for stateful policies.
			if da, ok := p.(DecisionAudited); ok {
				st := da.DecisionStats()
				if st.Decisions != len(starts) {
					t.Errorf("stats.Decisions = %d, events = %d", st.Decisions, len(starts))
				}
				if st.Candidates != len(sink.ofKind(telemetry.KindDecisionCandidate)) {
					t.Errorf("stats.Candidates = %d, events = %d",
						st.Candidates, len(sink.ofKind(telemetry.KindDecisionCandidate)))
				}
				if st.Moves != len(sink.ofKind(telemetry.KindDecisionMove)) {
					t.Errorf("stats.Moves = %d, events = %d",
						st.Moves, len(sink.ofKind(telemetry.KindDecisionMove)))
				}
			}
		})
	}
}

// TestLocalExtraCandidatesFlagged: the local algorithm's random extra
// candidates are marked Aux="extra" in the audit trail (Figure 7's knob).
func TestLocalExtraCandidatesFlagged(t *testing.T) {
	sink := &recSink{}
	r := rebuildRig(t, sim.NewKernel(sim.WithTelemetry(sink)), 6, 16)
	r.run(t, &Local{Period: 20 * time.Second, Extra: 3, Seed: 7})
	extras := 0
	for _, ev := range sink.ofKind(telemetry.KindDecisionCandidate) {
		if ev.Aux == "extra" {
			extras++
		}
	}
	if extras == 0 {
		t.Fatal("no extra-flagged candidates despite Extra=3")
	}
}

// rebuildRig is newPolicyRig on a caller-supplied (telemetry-instrumented)
// kernel, with uniform links.
func rebuildRig(t *testing.T, k *sim.Kernel, servers, iters int) *policyRig {
	t.Helper()
	net := netmodel.NewNetwork(k)
	for i := 0; i < servers; i++ {
		net.AddHost(fmt.Sprintf("s%d", i))
	}
	client := net.AddHost("client")
	for a := 0; a < net.NumHosts(); a++ {
		for b := a + 1; b < net.NumHosts(); b++ {
			net.SetLink(netmodel.HostID(a), netmodel.HostID(b), trace.Constant("l", 1e6))
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
