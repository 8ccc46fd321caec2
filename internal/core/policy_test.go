package core

import (
	"strings"
	"testing"
)

// TestNewPolicyRejects: one rule for every caller of NewPolicy. An unknown
// name, a negative extra-candidate count and extra candidates for an
// algorithm that never samples them are errors naming the problem, never a
// policy built with the value dropped.
func TestNewPolicyRejects(t *testing.T) {
	for _, tc := range []struct {
		alg   string
		extra int
		want  string // substring of the error
	}{
		{"mystery", 0, `unknown placement algorithm "mystery"`},
		{"local", -1, "extra candidates must be >= 0, got -1"},
		{"global", -3, "extra candidates must be >= 0, got -3"},
		{"global", 2, `local algorithm only, not "global"`},
		{"one-shot", 1, `local algorithm only, not "one-shot"`},
		{"download-all", 1, `local algorithm only, not "download-all"`},
	} {
		p, err := NewPolicy(tc.alg, PolicyOptions{Extra: tc.extra})
		if err == nil {
			t.Errorf("%s with extra %d: accepted as %v", tc.alg, tc.extra, p.Name())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s with extra %d: error %q does not contain %q", tc.alg, tc.extra, err, tc.want)
		}
	}
	for _, alg := range []string{"download-all", "one-shot", "global", "local"} {
		if _, err := NewPolicy(alg, PolicyOptions{}); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
	if _, err := NewPolicy("local", PolicyOptions{Extra: 2}); err != nil {
		t.Errorf("local with extra 2: %v", err)
	}
}
