package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"wadc/internal/telemetry"
)

// FuzzSimscope runs every log a JSONL reader accepts through every event-log
// analysis simscope has: timeline, decisions, critpath (with the per-tenant
// table, the per-iteration table, the predicted-vs-realized comparison and
// the CSV export, and again on one tenant's sub-log), estimator (with its
// CSV, and on the sub-log) and diff (against itself and against its first
// half). No analysis may panic, a readable log is never an error, and a log
// diffed against itself is identical. The seed corpus in
// testdata/fuzz/FuzzSimscope holds slices of real combine logs.
func FuzzSimscope(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := telemetry.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		dir := t.TempDir()
		log := filepath.Join(dir, "run.jsonl")
		if err := os.WriteFile(log, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var half bytes.Buffer
		if err := telemetry.WriteJSONL(&half, events[:len(events)/2]); err != nil {
			t.Fatal(err)
		}
		halfLog := filepath.Join(dir, "half.jsonl")
		if err := os.WriteFile(halfLog, half.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		tenant := "0"
		if len(events) > 0 {
			tenant = strconv.Itoa(int(events[0].Tenant))
		}
		for _, args := range [][]string{
			{"timeline", log},
			{"decisions", "-v", log, halfLog},
			{"critpath", "-v", "-csv", os.DevNull, log},
			{"critpath", "-tenant", tenant, log},
			{"estimator", "-csv", os.DevNull, log},
			{"estimator", "-tenant", tenant, log},
			{"diff", log, log},
		} {
			if code, _, stderr := runCLI(args...); code != 0 {
				t.Errorf("%v: exit %d\n%s", args[0], code, stderr)
			}
		}
		if code, _, stderr := runCLI("diff", log, halfLog); code != 0 && code != 3 {
			t.Errorf("diff against the first half: exit %d\n%s", code, stderr)
		}
	})
}
