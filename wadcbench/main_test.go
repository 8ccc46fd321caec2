package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"wadc/internal/workload"
)

// tinyScale keeps every workload to a few seconds under the race detector.
var tinyScale = scale{configs: 2, iters: 12, populations: 2, tenants: 6, tenantIters: 2, tenantBytes: workload.DefaultMeanBytes, setupReps: 1}

func tinyConfig(t *testing.T, workload string, traced bool, golden map[string]string) config {
	return config{
		workload: workload,
		seed:     3,
		traced:   traced,
		workers:  max(2, runtime.NumCPU()),
		sc:       tinyScale,
		golden:   golden,
		outDir:   t.TempDir(),
	}
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func runBench(t *testing.T, cfg config) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := bench(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

// roundDigestAt runs one untraced round at the given GOMAXPROCS and worker
// count.
func roundDigestAt(t *testing.T, list []opFunc, procs, workers int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r, err := runRound(list, workers, "op", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range r.results {
		if res.err != nil {
			t.Fatalf("op %d: %v", i, res.err)
		}
	}
	return r.digest
}

func TestDigestIndependentOfParallelism(t *testing.T) {
	n := max(2, runtime.NumCPU())
	for _, w := range workloadNames {
		in, _ := setup(w, 3, tinyScale, nil)
		list := ops(w, in, tinyScale)
		serial := roundDigestAt(t, list, 1, 1)
		if parallel := roundDigestAt(t, list, n, n); parallel != serial {
			t.Errorf("%s: digest with %d workers at GOMAXPROCS=%d is %s, with 1 worker at GOMAXPROCS=1 %s", w, n, n, parallel, serial)
		}
		if mixed := roundDigestAt(t, list, 1, n); mixed != serial {
			t.Errorf("%s: digest with %d workers at GOMAXPROCS=1 is %s, want %s", w, n, mixed, serial)
		}
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range workloadNames {
		in, _ := setup(w, 3, tinyScale, nil)
		list := ops(w, in, tinyScale)
		plain, err := runRound(list, 2, "op", nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runRound(list, 2, "op", newSpanLog())
		if err != nil {
			t.Fatal(err)
		}
		if traced.digest != plain.digest {
			t.Errorf("%s: traced digest %s, untraced %s", w, traced.digest, plain.digest)
		}
		var wallNs int64
		for _, res := range traced.results {
			if res.perf == nil {
				t.Fatalf("%s: traced op has no region-clock report", w)
			}
			wallNs += res.perf.WallNs
		}
		if wallNs <= 0 {
			t.Errorf("%s: traced round recorded no region-clock time", w)
		}
	}
}

func TestGoldenDigest(t *testing.T) {
	code, out, res := runBench(t, tinyConfig(t, "paper-sweep", false, nil))
	if code != 0 || !res.Correct {
		t.Fatalf("run without golden: exit %d, correct %v", code, res.Correct)
	}
	if !strings.Contains(out, "outputs unverified") {
		t.Errorf("run without golden does not say its outputs are unverified:\n%s", out)
	}
	m := regexp.MustCompile(`digest paper-sweep/3 ([0-9a-f]{64})`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest line in output:\n%s", out)
	}
	good := m[1]

	code, _, res = runBench(t, tinyConfig(t, "paper-sweep", false, map[string]string{"paper-sweep/3": good}))
	if code != 0 || !res.Correct {
		t.Errorf("run with matching golden: exit %d, correct %v", code, res.Correct)
	}

	bad := "0" + good[1:]
	if bad == good {
		bad = "1" + good[1:]
	}
	code, _, res = runBench(t, tinyConfig(t, "paper-sweep", false, map[string]string{"paper-sweep/3": bad}))
	if code == 0 || res.Correct {
		t.Errorf("run with corrupted golden: exit %d, correct %v; want a failure", code, res.Correct)
	}
	if len(res.Metrics) == 0 {
		t.Error("run with corrupted golden printed no metrics")
	}
}

func TestCommittedGoldenParses(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	keyRE, digestRE := regexp.MustCompile(`^[a-z-]+/-?[0-9]+$`), regexp.MustCompile(`^[0-9a-f]{64}$`)
	for key, d := range golden {
		if !keyRE.MatchString(key) || !digestRE.MatchString(d) {
			t.Errorf("malformed golden entry %q: %q", key, d)
		}
	}
}

// declaration is the part of BENCHMARK.json the benchmark must honour.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			declared := decl.EndToEnd
			if traced {
				declared = decl.PerLayer
			}
			code, _, res := runBench(t, tinyConfig(t, w, traced, nil))
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: exit %d, correct %v, attempted %d, failed %d", w, traced, code, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				switch {
				case !valid.MatchString(d.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
				case !ok || got.Value == nil:
					t.Errorf("%s traced=%v: metric %s not printed", w, traced, d.Name)
				case got.Unit == "" || got.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json declares %q", w, traced, d.Name, got.Unit, d.Unit)
				}
			}
		}
	}
}
