package core

import (
	"reflect"
	"testing"
	"time"

	"wadc/internal/placement"
	"wadc/internal/telemetry"
)

// estDigest runs cfg with an in-memory recorder attached and returns the
// result and the raw event stream.
func estDigest(t *testing.T, cfg RunConfig) (RunResult, []telemetry.Event) {
	t.Helper()
	rec := telemetry.NewRecorder()
	cfg.Telemetry = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, rec.Events()
}

// TestEstimateUsedExactlyOncePerDecision is the acceptance criterion: in a
// seeded single-tenant global run, every estimate a placement decision
// consumed appears exactly once in the estimator stream — one estimate-used
// event per (decision, link) pair, matching the decision audit trail's
// non-local bandwidth lookups one-for-one.
func TestEstimateUsedExactlyOncePerDecision(t *testing.T) {
	_, events := estDigest(t, RunConfig{
		Seed: 23, NumServers: 4, Shape: CompleteBinaryTree,
		Links:    constLinks(64 * 1024),
		Policy:   &placement.Global{Period: 2 * time.Minute},
		Workload: smallWorkload(8),
		Observe:  Observe{Estimates: true},
	})
	type key struct {
		seq  int64
		a, b int32
	}
	used := map[key]int{}
	usedN := 0
	for _, ev := range events {
		if ev.Kind == telemetry.KindEstimateUsed {
			used[key{ev.Seq, ev.Host, ev.Peer}]++
			usedN++
		}
	}
	if usedN == 0 {
		t.Fatal("no estimates recorded")
	}
	for k, n := range used {
		if n != 1 {
			t.Errorf("decision %d link %d<->%d joined %d times, want exactly once", k.seq, k.a, k.b, n)
		}
	}
	// The decision audit trail is the ground truth for what was consumed:
	// each non-local decision-bandwidth lookup has exactly one join.
	decN := 0
	for _, ev := range events {
		if ev.Kind == telemetry.KindDecisionBandwidth && ev.Aux != "local" {
			decN++
			if used[key{ev.Seq, ev.Host, ev.Peer}] != 1 {
				t.Errorf("decision %d consumed link %d<->%d but no join was recorded", ev.Seq, ev.Host, ev.Peer)
			}
		}
	}
	if decN != usedN {
		t.Errorf("decisions consumed %d estimates, %d joins recorded", decN, usedN)
	}
}

// TestTrackEstimatesWithoutSinkInert: estimator events are pure telemetry,
// so Observe.Estimates without a telemetry destination leaves the run
// exactly as it is without it.
func TestTrackEstimatesWithoutSinkInert(t *testing.T) {
	run := func(o Observe) RunResult {
		return mustRun(t, RunConfig{
			Seed: 3, NumServers: 4, Shape: CompleteBinaryTree,
			Links:    constLinks(64 * 1024),
			Policy:   &placement.Global{Period: 2 * time.Minute},
			Workload: smallWorkload(4),
			Observe:  o,
		})
	}
	if plain, est := run(Observe{}), run(Observe{Estimates: true}); !reflect.DeepEqual(plain, est) {
		t.Errorf("results diverge:\n  want=%+v\n  got=%+v", plain, est)
	}
}
