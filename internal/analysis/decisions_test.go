package analysis

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wadc/internal/core"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestExtractDecisionsGroupsBySeq(t *testing.T) {
	// Two interleaved records (the local algorithm's probes suspend the
	// decider mid-decision): events of seq 1 and 2 alternate.
	events := []telemetry.Event{
		{Kind: telemetry.KindDecisionStart, At: 100, Host: 3, Iter: 5, Seq: 1, Aux: "local"},
		{Kind: telemetry.KindDecisionStart, At: 110, Host: 4, Iter: 5, Seq: 2, Aux: "local"},
		{Kind: telemetry.KindDecisionBandwidth, At: 120, Host: 0, Peer: 3, Value: 5e5, Seq: 1, Aux: "probe"},
		{Kind: telemetry.KindDecisionPath, At: 130, Value: 7.5, Seq: 2, Name: "1,2,6,7"},
		{Kind: telemetry.KindDecisionPath, At: 140, Value: 9.25, Seq: 1, Name: "0,4,5"},
		{Kind: telemetry.KindDecisionCandidate, At: 150, Node: 5, Host: 3, Peer: 1, Value: 8.0, Seq: 1},
		{Kind: telemetry.KindDecisionCandidate, At: 160, Node: 6, Host: 4, Peer: 2, Value: 7.0, Seq: 2, Aux: "extra"},
		{Kind: telemetry.KindDecisionMove, At: 170, Node: 5, Host: 3, Peer: 1, Value: 1.25, Seq: 1},
		{Kind: telemetry.KindDecisionEnd, At: 180, Value: 8.0, Bytes: 1, Seq: 1},
		{Kind: telemetry.KindDecisionEnd, At: 190, Value: 7.5, Bytes: 1, Seq: 2},
	}
	ds := ExtractDecisions(events)
	if len(ds) != 2 {
		t.Fatalf("got %d decisions, want 2", len(ds))
	}
	d1, d2 := ds[0], ds[1]
	if d1.Seq != 1 || d2.Seq != 2 {
		t.Fatalf("seq order = %d,%d", d1.Seq, d2.Seq)
	}
	if d1.Algorithm != "local" || d1.Decider != 3 || d1.Iter != 5 {
		t.Errorf("d1 header = %+v", d1)
	}
	if d1.StartCost != 9.25 || d1.FinalCost != 8.0 {
		t.Errorf("d1 costs = %.2f → %.2f", d1.StartCost, d1.FinalCost)
	}
	if len(d1.Path) != 3 || d1.Path[2] != 5 {
		t.Errorf("d1 path = %v", d1.Path)
	}
	if len(d1.Bandwidth) != 1 || !d1.Bandwidth[0].Probed {
		t.Errorf("d1 bandwidth = %+v", d1.Bandwidth)
	}
	if len(d1.Candidates) != 1 || d1.Candidates[0].Op != 5 {
		t.Errorf("d1 candidates = %+v", d1.Candidates)
	}
	if len(d1.Moves) != 1 || d1.Moves[0].Gain != 1.25 {
		t.Errorf("d1 moves = %+v", d1.Moves)
	}
	if d1.Start != 100 || d1.End != 180 {
		t.Errorf("d1 bracket = [%d,%d]", d1.Start, d1.End)
	}
	if len(d2.Candidates) != 1 || !d2.Candidates[0].Extra || len(d2.Moves) != 0 {
		t.Errorf("d2 = %+v", d2)
	}
	if d2.StartCost != 7.5 || d2.FinalCost != 7.5 {
		t.Errorf("no-move decision costs = %.2f → %.2f", d2.StartCost, d2.FinalCost)
	}
}

func TestAttributeJoinsRealizedOutcomes(t *testing.T) {
	sec := int64(1e9)
	var events []telemetry.Event
	// Arrivals every 10s before t=100s, every 5s after: the decision at
	// t=100s made iterations faster.
	for ts := int64(10); ts <= 100; ts += 10 {
		events = append(events, telemetry.Event{Kind: telemetry.KindImageArrived, At: ts * sec})
	}
	for ts := int64(105); ts <= 160; ts += 5 {
		events = append(events, telemetry.Event{Kind: telemetry.KindImageArrived, At: ts * sec})
	}
	decision := []telemetry.Event{
		{Kind: telemetry.KindDecisionStart, At: 100 * sec, Host: 2, Iter: -1, Seq: 1, Aux: "global"},
		{Kind: telemetry.KindDecisionMove, At: 100 * sec, Node: 4, Host: 2, Peer: 0, Value: 5.0, Seq: 1},
		{Kind: telemetry.KindDecisionEnd, At: 101 * sec, Value: 5.0, Bytes: 6, Seq: 1},
	}
	events = append(events, decision...)
	// The move commits, then is later reverted (4 moves back to host 2).
	events = append(events,
		telemetry.Event{Kind: telemetry.KindRelocationCommitted, At: 103 * sec, Node: 4, Host: 2, Peer: 0, Bytes: 4096, Aux: "barrier"},
		telemetry.Event{Kind: telemetry.KindRelocationCommitted, At: 150 * sec, Node: 4, Host: 0, Peer: 2, Bytes: 2048, Aux: "barrier"},
	)
	out := Attribute(ExtractDecisions(events), events)
	if len(out) != 1 {
		t.Fatalf("got %d outcomes", len(out))
	}
	o := out[0]
	if math.Abs(o.PreInterarrival-10) > 1e-9 {
		t.Errorf("pre interarrival = %v, want 10", o.PreInterarrival)
	}
	if math.Abs(o.PostInterarrival-5) > 1e-9 {
		t.Errorf("post interarrival = %v, want 5", o.PostInterarrival)
	}
	if math.Abs(o.IterDelta+5) > 1e-9 {
		t.Errorf("iter delta = %v, want -5", o.IterDelta)
	}
	// Predicted 5.0s per iteration, realized 5.0s: zero prediction error.
	if math.Abs(o.PredErr) > 1e-9 {
		t.Errorf("prediction error = %v, want 0", o.PredErr)
	}
	if o.CommittedMoves != 1 || o.RelocationBytes != 4096 {
		t.Errorf("committed = %d bytes = %d", o.CommittedMoves, o.RelocationBytes)
	}
	if !o.Reverted {
		t.Error("decision not marked reverted despite the back-move")
	}
}

func TestDiffSyntheticLogs(t *testing.T) {
	a := []telemetry.Event{
		{Kind: telemetry.KindImageArrived, At: 10, Iter: 0},
		{Kind: telemetry.KindImageArrived, At: 20, Iter: 1},
	}
	if res := DiffLogs(a, a); !res.Identical {
		t.Fatal("identical logs reported as diverged")
	}
	b := []telemetry.Event{
		{Kind: telemetry.KindImageArrived, At: 10, Iter: 0},
		{Kind: telemetry.KindImageArrived, At: 25, Iter: 1},
		{Kind: telemetry.KindCrashFired, At: 30, Host: 1},
	}
	res := DiffLogs(a, b)
	if res.Identical {
		t.Fatal("different logs reported identical")
	}
	d := res.Divergence
	if d.Index != 1 {
		t.Errorf("first divergence index = %d, want 1", d.Index)
	}
	if d.Iteration != 1 {
		t.Errorf("first diverging iteration = %d, want 1", d.Iteration)
	}
	if len(d.KindDeltas) != 1 || d.KindDeltas[0].Kind != telemetry.KindCrashFired || d.KindDeltas[0].Delta != 1 {
		t.Errorf("kind deltas = %+v", d.KindDeltas)
	}
	// Prefix case: b truncated.
	res = DiffLogs(a, a[:1])
	if res.Identical || res.Divergence.Index != 1 {
		t.Errorf("prefix diff = %+v", res.Divergence)
	}
	if res.Divergence.B.Kind != telemetry.KindNone {
		t.Errorf("past-end event = %+v", res.Divergence.B)
	}
}

// auditedRun executes one telemetry-instrumented run against the study-pool
// link assignment used by TestConvergenceOnRealRuns and returns its
// model-level event log.
func auditedRun(t *testing.T, p placement.Policy, seed int64) []telemetry.Event {
	t.Helper()
	pool := trace.NewStudyPool(seed)
	rng := rand.New(rand.NewSource(seed))
	linkMap := map[[2]netmodel.HostID]*trace.Trace{}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			linkMap[[2]netmodel.HostID{netmodel.HostID(a), netmodel.HostID(b)}] = pool.Pick(rng)
		}
	}
	linkAt := func(a, b netmodel.HostID) *trace.Trace {
		if a > b {
			a, b = b, a
		}
		return linkMap[[2]netmodel.HostID{a, b}]
	}
	rec := &telemetry.Recorder{}
	_, err := core.Run(core.RunConfig{
		Seed: seed, NumServers: 4, Shape: core.CompleteBinaryTree,
		Links: linkAt, Policy: p,
		Workload: workload.Config{ImagesPerServer: 40, MeanBytes: 128 * 1024, SpreadFrac: 0.25},
		Observe:  core.Observe{Telemetry: telemetry.ModelOnly(rec)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// TestSameSeedRunsZeroDivergence is the determinism acceptance check:
// simscope diff over two same-seed, same-config event logs must report zero
// divergence.
func TestSameSeedRunsZeroDivergence(t *testing.T) {
	a := auditedRun(t, &placement.Global{Period: 5 * time.Minute}, 3)
	b := auditedRun(t, &placement.Global{Period: 5 * time.Minute}, 3)
	res := DiffLogs(a, b)
	if !res.Identical {
		t.Fatalf("same-seed runs diverged:\n%s", res.String())
	}
	if res.A.Hash != res.B.Hash || res.A.Events == 0 {
		t.Fatalf("summary = %+v vs %+v", res.A, res.B)
	}
}

// TestDecisionsReportGolden pins the `simscope decisions` report for a
// seeded global-vs-local pair (run with -update to regenerate).
func TestDecisionsReportGolden(t *testing.T) {
	var out string
	for _, tc := range []struct {
		label  string
		policy placement.Policy
	}{
		{"global", &placement.Global{Period: 5 * time.Minute}},
		{"local", &placement.Local{Period: 5 * time.Minute, Extra: 2, Seed: 3}},
	} {
		events := auditedRun(t, tc.policy, 3)
		outcomes := Attribute(ExtractDecisions(events), events)
		if len(outcomes) == 0 {
			t.Fatalf("%s: no decision records", tc.label)
		}
		out += "== " + tc.label + " ==\n"
		out += FormatDecisionReports(BuildReports(outcomes))
		out += FormatDecisionTable(outcomes)
	}
	golden := filepath.Join("testdata", "decisions_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if out != string(want) {
		t.Errorf("decisions report drifted from golden.\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}
