package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutOfRangeFlagsRejected: a flag below its range exits 2 with a
// message naming it, instead of silently taking the paper's default. Each
// row asks for Figure 2, which needs no simulation, so a value that slips
// through shows up as a quick exit 0.
func TestOutOfRangeFlagsRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-fig", "2").CombinedOutput(); err != nil {
		t.Fatalf("-fig 2 with default flags: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // the message names the rejected flag
	}{
		{[]string{"-configs", "0"}, "-configs"},
		{[]string{"-servers", "0"}, "-servers"},
		{[]string{"-servers", "1"}, "-servers"},
		{[]string{"-iters", "0"}, "-iters"},
		{[]string{"-iters", "-5"}, "-iters"},
		{[]string{"-period", "0"}, "-period"},
		{[]string{"-workers", "-3"}, "-workers"},
		{[]string{"-progress", "-1s"}, "-progress"},
	} {
		out, err := exec.Command(bin, append([]string{"-fig", "2"}, tc.args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want status 2; output:\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: message does not name %s:\n%s", tc.args, tc.want, out)
		}
	}
}
