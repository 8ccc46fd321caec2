package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExtraRejectedWithTenants: only single runs of the local algorithm take
// extra candidates, so -extra with -tenants > 1 or with any other algorithm
// is a usage error rather than a flag silently dropped. So is every other
// out-of-range or inapplicable flag: each exits 2 with a message naming it,
// instead of panicking or running with a replaced value.
func TestExtraRejectedWithTenants(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "combine")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // the message names the rejected option
	}{
		{[]string{"-tenants", "2", "-alg", "local", "-extra", "2", "-iters", "1"}, "-extra"},
		{[]string{"-servers", "4", "-alg", "global", "-extra", "2", "-iters", "3"}, "extra candidates"},
		{[]string{"-servers", "4", "-alg", "local", "-extra", "-1", "-iters", "3"}, "extra candidates must be >= 0"},
		{[]string{"-config", "-1", "-iters", "1"}, "-config"},
		{[]string{"-servers", "2", "-iters", "0"}, "-iters"},
		{[]string{"-servers", "2", "-iters", "1", "-period", "0"}, "-period"},
		{[]string{"-servers", "2", "-iters", "1", "-tenants", "0"}, "-tenants"},
		{[]string{"-servers", "2", "-iters", "1", "-tenants", "-3"}, "-tenants"},
		{[]string{"-servers", "2", "-iters", "1", "-tenants", "2", "-arrival-rate", "-1"}, "-arrival-rate"},
		{[]string{"-servers", "2", "-iters", "1", "-arrival-rate", "2"}, "-arrival-rate"},
		{[]string{"-servers", "2", "-iters", "1", "-progress", "-1s"}, "-progress"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
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
