package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExtraRejectedWithTenants: multi-tenant runs build their policies
// without extra candidates, so -extra with -tenants > 1 is a usage error
// rather than a flag silently dropped.
func TestExtraRejectedWithTenants(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "combine")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-tenants", "2", "-alg", "local", "-extra", "2", "-iters", "1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-extra") {
		t.Errorf("message does not name -extra:\n%s", out)
	}
}
