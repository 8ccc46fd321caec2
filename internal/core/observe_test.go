package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"wadc/internal/faults"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
)

// The observer matrix is the seeded-replay contract for observers: every
// observer (none, telemetry with a metrics collector, perf, estimates,
// allocs) on every case (4 algorithms x fault-free/faulty, and a 10-tenant
// run) must leave the simulation untouched. An observed run must give the
// unobserved run's result, and its event log (kernel events included) and
// metrics CSV must equal the telemetry run's byte for byte. Each test below
// is one observer column: the Run tests walk the algorithm/mode cases, the
// Multi tests take the 10-tenant case.

// matrixCase is one seeded simulation the observer matrix watches. run
// executes it with the given observers attached and returns the result
// (a *RunResult or *MultiResult) together with its Shared block.
type matrixCase struct {
	iters int64 // images all clients receive together
	run   func(t *testing.T, o Observe) (any, *Shared)
}

// soloCase is one algorithm on 4 servers under the fault config fc.
func soloCase(mk func() placement.Policy, fc faults.Config) matrixCase {
	return matrixCase{iters: 8, run: func(t *testing.T, o Observe) (any, *Shared) {
		res := mustRun(t, RunConfig{
			Seed: 21, NumServers: 4, Shape: CompleteBinaryTree,
			Links: constLinks(64 * 1024), Policy: mk(), // policies carry state
			Workload: smallWorkload(8),
			Faults:   fc,
			Observe:  o,
		})
		return &res, &res.Shared
	}}
}

// multiCase is 10 tenants sharing 5 servers.
func multiCase() matrixCase {
	return matrixCase{iters: 30, run: func(t *testing.T, o Observe) (any, *Shared) {
		res, err := RunMulti(MultiConfig{
			Seed: 9, NumServers: 5,
			Links: constLinks(64 * 1024),
			Tenants: tenant.Population(tenant.PopulationConfig{
				N: 10, ArrivalRate: 2, Seed: 9, NumServers: 3, Iterations: 3,
			}),
			Workload: smallWorkload(3),
			Period:   2 * time.Minute,
			Observe:  o,
		})
		if err != nil {
			t.Fatalf("RunMulti: %v", err)
		}
		if res.Completed != 10 {
			t.Fatalf("completed=%d aborted=%d, want 10/0", res.Completed, res.Aborted)
		}
		return &res, &res.Shared
	}}
}

// forEachCase runs check on the four algorithms, fault-free and under the
// multi-tenant suite's faults, as <algorithm>/<mode> subtests, and on the
// 10-tenant run as multi-10 when withMulti is set.
func forEachCase(t *testing.T, withMulti bool, check func(t *testing.T, c matrixCase)) {
	policies := chaosPolicies()
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mk := policies[name]
		t.Run(name, func(t *testing.T) {
			for _, mode := range []struct {
				label string
				fc    faults.Config
			}{
				{"fault-free", faults.Config{}},
				{"faulty", multiFaults()},
			} {
				t.Run(mode.label, func(t *testing.T) { check(t, soloCase(mk, mode.fc)) })
			}
		})
	}
	if withMulti {
		t.Run("multi-10", func(t *testing.T) { check(t, multiCase()) })
	}
}

// observed is what one observed run leaves behind: the result with the
// observers' own reports moved out of it, and, when a sink was attached,
// the full event log (kernel events included) as JSONL minus the estimator
// kinds, plus the metrics CSV and the number of estimates the decision
// audit trail records as consumed (non-local decision-bandwidth lookups).
type observed struct {
	res       any
	jsonl     []byte
	csv       []byte
	estEvents []telemetry.Event
	lookups   int
	perf      *obs.Report
	allocs    *obs.AllocReport
}

// observe runs c with one observer: "none", "telemetry" (a recorder and a
// metrics collector), or the telemetry sinks plus "perf", "estimates" or
// "allocs".
func observe(t *testing.T, c matrixCase, observer string) observed {
	t.Helper()
	var o Observe
	var rec *telemetry.Recorder
	var col *telemetry.Collector
	if observer != "none" {
		rec, col = telemetry.NewRecorder(), telemetry.NewCollector()
		o.Telemetry = telemetry.Multi(rec, col)
	}
	switch observer {
	case "perf":
		o.Perf = obs.NewRecorder()
	case "estimates":
		o.Estimates = true
	}
	var capture *obs.AllocCapture
	if observer == "allocs" {
		capture = obs.StartAllocCapture()
	}
	res, sh := c.run(t, o)
	out := observed{res: res, allocs: capture.Finish(c.iters), perf: sh.Perf}
	sh.Perf = nil
	if rec == nil {
		return out
	}
	var kept []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.KindEstimateUsed || ev.Kind == telemetry.KindRegimeDetected {
			out.estEvents = append(out.estEvents, ev)
			continue
		}
		if ev.Kind == telemetry.KindDecisionBandwidth && ev.Aux != "local" {
			out.lookups++
		}
		kept = append(kept, ev)
	}
	out.jsonl = jsonlBytes(t, kept)
	var csv bytes.Buffer
	if err := col.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out.csv = csv.Bytes()
	return out
}

// baseline runs c unobserved and with telemetry: the result and the event
// log every other observer is held to.
func baseline(t *testing.T, c matrixCase) (plain, ref observed) {
	t.Helper()
	plain, ref = observe(t, c, "none"), observe(t, c, "telemetry")
	if len(ref.jsonl) == 0 {
		t.Fatal("run emitted no telemetry events")
	}
	return plain, ref
}

func sameResult(t *testing.T, want, got observed) {
	t.Helper()
	if !reflect.DeepEqual(want.res, got.res) {
		t.Errorf("results diverge:\n  want=%+v\n  got=%+v", want.res, got.res)
	}
}

// sameLog requires got's event log, and its metrics CSV when csv is set,
// to equal want's byte for byte.
func sameLog(t *testing.T, want, got observed, csv bool) {
	t.Helper()
	if !bytes.Equal(want.jsonl, got.jsonl) {
		t.Errorf("event log diverges: %d vs %d bytes (first diff at byte %d)",
			len(want.jsonl), len(got.jsonl), firstDiff(want.jsonl, got.jsonl))
	}
	if csv && !bytes.Equal(want.csv, got.csv) {
		t.Errorf("metrics CSV diverges:\n--- want ---\n%s\n--- got ---\n%s", want.csv, got.csv)
	}
}

// TestDeterministicReplay is the none column: two unobserved same-seed runs
// agree on the whole result, fault counters and generated fault plan
// included. TestArtifactsByteIdentical replays the event log.
func TestDeterministicReplay(t *testing.T) {
	forEachCase(t, true, func(t *testing.T, c matrixCase) {
		sameResult(t, observe(t, c, "none"), observe(t, c, "none"))
	})
}

// metricsCSVDigests pins the SHA-256 of each case's metrics CSV, by
// subtest path. The other columns compare two runs' CSVs, which a format
// change made in both would pass; these digests catch it.
var metricsCSVDigests = map[string]string{
	"download-all/fault-free": "9447685392ae38a4710577496183299ccca511553bec5fbd25464a9ef9c2c8a8",
	"download-all/faulty":     "580c35732303ad072bb82710e6ee177338e89f47f6a2edec75ca88f9af3b0290",
	"global/fault-free":       "00871762f3d49e6e500971b1eeacacf7342a38378a2fb0e3fedb786432a85b78",
	"global/faulty":           "1164985ac7243416cadc955d4e89aa2fc4723eb22e9be6943cfad56271c39deb",
	"local/fault-free":        "c4a2173125205e5c218326e64368ba60947ba57eaef536a5d58d75d015d04c35",
	"local/faulty":            "e5342f1e50fbeae25e7fa4bbbd5049b39f7defd441b76c8b2737ec8a0f0d269e",
	"one-shot/fault-free":     "c4a2173125205e5c218326e64368ba60947ba57eaef536a5d58d75d015d04c35",
	"one-shot/faulty":         "9046a5dbfee116c7763f79d080d5a5755dffd26524a3a57c46ce73bf42f36baf",
	"multi-10":                "ca3cb5fc05ef0878cebd1db126a73b0f89948fafb7c9500c23d7808bae8cd2ff",
}

// TestTelemetryDoesNotPerturbDeterminism is the telemetry column: a
// recorder and a metrics collector leave the result as the unobserved
// run's, the collector counts the run's transfers, and the metrics CSV
// matches its pinned digest. Telemetry is observation, never actuation.
func TestTelemetryDoesNotPerturbDeterminism(t *testing.T) {
	forEachCase(t, true, func(t *testing.T, c matrixCase) {
		plain, ref := baseline(t, c)
		sameResult(t, plain, ref)
		if bytes.Contains(ref.csv, []byte("\ncounter,net.transfers,,0\n")) {
			t.Error("metrics CSV recorded no transfers")
		}
		_, path, _ := strings.Cut(t.Name(), "/")
		if got := fmt.Sprintf("%x", sha256.Sum256(ref.csv)); got != metricsCSVDigests[path] {
			t.Errorf("metrics CSV SHA-256 = %s, want %s", got, metricsCSVDigests[path])
		}
	})
}

// TestNilPointerSinkIsOff: a nil *telemetry.Collector passed as the sink
// leaves telemetry off, so the run completes as an unobserved one instead of
// emitting into the nil collector.
func TestNilPointerSinkIsOff(t *testing.T) {
	cfg := func(o Observe) RunConfig {
		return RunConfig{
			Seed: 21, NumServers: 4, Shape: CompleteBinaryTree,
			Links: constLinks(64 * 1024), Policy: placement.OneShot{},
			Workload: smallWorkload(4),
			Observe:  o,
		}
	}
	res := mustRun(t, cfg(Observe{Telemetry: (*telemetry.Collector)(nil)}))
	wantArrivals(t, res, 4)
	if plain := mustRun(t, cfg(Observe{})); !reflect.DeepEqual(plain, res) {
		t.Errorf("results diverge:\n  want=%+v\n  got=%+v", plain, res)
	}
}

// TestArtifactsByteIdentical: two same-seed telemetry runs serialize
// byte-identical JSONL event logs, kernel events included, and metrics
// CSVs. This is the dynamic counterpart of the simlint analyzers —
// simclock, seededrand and detrange forbid the constructs (wall-clock
// reads, global randomness, order-bearing map iteration) that would make
// these artifacts diverge between runs.
func TestArtifactsByteIdentical(t *testing.T) {
	forEachCase(t, true, func(t *testing.T, c matrixCase) {
		_, ref := baseline(t, c)
		sameLog(t, ref, observe(t, c, "telemetry"), true)
	})
}

// checkPerf is the perf column: a host-process recorder leaves the result,
// the event log and the metrics CSV untouched, and its report has shares
// summing to ~1, live event counts and the delivered work.
func checkPerf(t *testing.T, c matrixCase) {
	plain, ref := baseline(t, c)
	o := observe(t, c, "perf")
	sameResult(t, plain, o)
	sameLog(t, ref, o, true)
	rep := o.perf
	if rep == nil {
		t.Fatal("Observe.Perf set but the result has no Perf report")
	}
	if sum := rep.ShareSum(); sum < 0.95 || sum > 1.001 {
		t.Errorf("subsystem shares sum to %.3f, want ~1.0", sum)
	}
	if rep.Events <= 0 {
		t.Errorf("report counted %d events, want > 0", rep.Events)
	}
	if rep.WorkTotal != c.iters || rep.WorkDone != c.iters {
		t.Errorf("work meter %d/%d, want %d/%d", rep.WorkDone, rep.WorkTotal, c.iters, c.iters)
	}
}

func TestObsRunByteIdentical(t *testing.T)   { forEachCase(t, false, checkPerf) }
func TestObsMultiByteIdentical(t *testing.T) { checkPerf(t, multiCase()) }

// checkEstimates is the estimates column: estimator tracking leaves the
// result and, once the two estimator kinds are filtered, the event log
// untouched, and emits one estimate-used event per estimate the decision
// audit trail consumed. The collector counts events by kind, so it sees the
// extra estimator telemetry: the CSV is a derived difference here and is
// not compared.
func checkEstimates(t *testing.T, c matrixCase) observed {
	plain, ref := baseline(t, c)
	o := observe(t, c, "estimates")
	sameResult(t, plain, o)
	sameLog(t, ref, o, false)
	if n := countKind(o.estEvents, telemetry.KindEstimateUsed); n != o.lookups {
		t.Errorf("stream has %d estimate-used events, decisions consumed %d estimates", n, o.lookups)
	}
	return o
}

func TestEstimatorRunByteIdentical(t *testing.T) {
	forEachCase(t, false, func(t *testing.T, c matrixCase) { checkEstimates(t, c) })
}

func TestEstimatorMultiByteIdentical(t *testing.T) {
	o := checkEstimates(t, multiCase())
	// The shared tracker emits from within each tenant's decision context,
	// so its events carry several tenants' tags.
	tenants := map[int32]bool{}
	for _, ev := range o.estEvents {
		if ev.Kind == telemetry.KindEstimateUsed {
			tenants[ev.Tenant] = true
		}
	}
	if len(tenants) < 2 {
		t.Errorf("estimate-used events span %d tenants, want several", len(tenants))
	}
}

// checkAllocs is the allocs column: an allocation capture around the call
// leaves the result, the event log and the metrics CSV untouched, and
// attributes at least 90% of the run's allocations to sites.
func checkAllocs(t *testing.T, c matrixCase) {
	plain, ref := baseline(t, c)
	o := observe(t, c, "allocs")
	sameResult(t, plain, o)
	sameLog(t, ref, o, true)
	rep := o.allocs
	if rep == nil || rep.TotalAllocs <= 0 || len(rep.Sites) == 0 {
		t.Fatalf("empty allocation profile: %+v", rep)
	}
	if cov := rep.Coverage(); cov < 0.9 {
		t.Errorf("coverage = %.3f, want >= 0.9 at profile rate 1", cov)
	}
}

func TestAllocsRunByteIdentical(t *testing.T)   { forEachCase(t, false, checkAllocs) }
func TestAllocsMultiByteIdentical(t *testing.T) { checkAllocs(t, multiCase()) }

func countKind(events []telemetry.Event, k telemetry.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func jsonlBytes(t *testing.T, events []telemetry.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// firstDiff returns the index of the first differing byte, or -1 if one
// buffer is a prefix of the other.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
