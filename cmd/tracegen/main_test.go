package main

import (
	"bytes"
	"errors"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wadc/internal/trace"
)

func buildTracegen(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestIndexOutOfRangeRejected: an -index outside the study pool exits 2
// with a message naming the flag, instead of panicking or wrapping around.
func TestIndexOutOfRangeRejected(t *testing.T) {
	bin := buildTracegen(t)
	for _, args := range [][]string{
		{"-csv", "-index", "-1"},
		{"-fig2", "-index", "-1"},
		{"-csv", "-index", "1000"},
		{"-fig2", "-index", "1000"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want status 2; output:\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "-index") || strings.Contains(string(out), "panic") {
			t.Errorf("%v: want a usage message naming -index:\n%s", args, out)
		}
	}
}

// TestCSVRoundTrip: `tracegen -csv` writes what trace.ReadCSV reads back
// into the study-pool trace it dumped, to the writer's 4-decimal KB/s
// precision.
func TestCSVRoundTrip(t *testing.T) {
	bin := buildTracegen(t)
	out, err := exec.Command(bin, "-csv", "-index", "5").Output()
	if err != nil {
		t.Fatalf("tracegen -csv -index 5: %v", err)
	}
	got, err := trace.ReadCSV(bytes.NewReader(out), "tracegen")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	want := trace.NewStudyPool(1).Trace(5)
	if got.Len() != want.Len() || got.Interval() != want.Interval() {
		t.Fatalf("read %d samples at %v, want %d at %v", got.Len(), got.Interval(), want.Len(), want.Interval())
	}
	gs, ws := got.Samples(), want.Samples()
	for i := range ws {
		if d := math.Abs(gs[i].KBps() - ws[i].KBps()); d > 0.5e-4+1e-9 {
			t.Fatalf("sample %d: read %.6f KB/s, want %.6f", i, gs[i].KBps(), ws[i].KBps())
		}
	}
}
