package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wadc/internal/core"
	"wadc/internal/telemetry"
)

// TestRunSweepTelemetryDir: with TelemetryDir set, every sweep cell must land
// one decodable JSONL event log and one metrics CSV, named by config and
// algorithm.
func TestRunSweepTelemetryDir(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.Configs = 2
	o.TelemetryDir = dir
	algs := StandardAlgorithms()
	sweep, err := RunSweep(o, core.CompleteBinaryTree, algs)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	for _, a := range algs {
		for cfg := 0; cfg < o.Configs; cfg++ {
			base := filepath.Join(dir, fmt.Sprintf("c%03d_%s", cfg, a.Name))
			events := base + ".events.jsonl"
			f, err := os.Open(events)
			if err != nil {
				t.Fatalf("missing event log: %v", err)
			}
			evs, err := telemetry.ReadJSONL(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s does not decode: %v", events, err)
			}
			if len(evs) == 0 {
				t.Errorf("%s is empty", events)
			}
			for _, ev := range evs {
				if ev.Kind.Kernel() {
					t.Errorf("%s contains kernel-level event %v; cell logs should be model-only", events, ev.Kind)
					break
				}
			}
			csv, err := os.ReadFile(base + ".metrics.csv")
			if err != nil {
				t.Fatalf("missing metrics file: %v", err)
			}
			if !strings.HasPrefix(string(csv), "type,name,key,value\n") {
				t.Errorf("%s.metrics.csv missing header", base)
			}
		}
	}
	if len(sweep.Cells) != len(algs) {
		t.Fatalf("sweep lost cells: %d algorithms", len(sweep.Cells))
	}
}

// TestFigureFaultsTelemetryPerRate: a figure that runs one sweep per fault
// rate writes each sweep into its own subdirectory, so no rate's cell files
// overwrite another's, and the faulty rate's logs differ from the
// fault-free ones.
func TestFigureFaultsTelemetryPerRate(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.Configs = 1
	o.Iterations = 10
	o.TelemetryDir = dir
	if _, err := FigureFaults(o, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	logs := make(map[string][]byte)
	for _, rate := range []string{"faults-0", "faults-1"} {
		for _, a := range StandardAlgorithms() {
			base := filepath.Join(dir, rate, "c000_"+a.Name)
			events, err := os.ReadFile(base + ".events.jsonl")
			if err != nil {
				t.Fatalf("rate %s, %s: %v", rate, a.Name, err)
			}
			if _, err := os.Stat(base + ".metrics.csv"); err != nil {
				t.Fatalf("rate %s, %s: %v", rate, a.Name, err)
			}
			if a.Name == "global" {
				logs[rate] = events
			}
		}
	}
	if bytes.Equal(logs["faults-0"], logs["faults-1"]) {
		t.Error("the fault-free and faulty global cells left identical event logs")
	}
}
