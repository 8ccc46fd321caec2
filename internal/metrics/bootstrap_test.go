package metrics

import (
	"math/rand"
	"strings"
	"testing"
)

func TestBootstrapCIBracketsTruth(t *testing.T) {
	// Sample from a known distribution; the CI should bracket the true mean
	// and shrink with sample size.
	rng := rand.New(rand.NewSource(1))
	small := make([]float64, 20)
	large := make([]float64, 2000)
	for i := range small {
		small[i] = 10 + rng.NormFloat64()
	}
	for i := range large {
		large[i] = 10 + rng.NormFloat64()
	}
	ciSmall := BootstrapCI(small, Mean, 0.95, 1000, 7)
	ciLarge := BootstrapCI(large, Mean, 0.95, 1000, 7)
	for _, ci := range []CI{ciSmall, ciLarge} {
		if ci.Low > ci.Point || ci.Point > ci.High {
			t.Errorf("interval does not contain point: %v", ci)
		}
		if ci.Low > 10 || ci.High < 10 {
			t.Errorf("interval misses true mean 10: %v", ci)
		}
	}
	if (ciLarge.High - ciLarge.Low) >= (ciSmall.High - ciSmall.Low) {
		t.Errorf("CI did not shrink: small %v, large %v", ciSmall, ciLarge)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := MedianCI(xs, 42)
	b := MedianCI(xs, 42)
	if a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
	c := MedianCI(xs, 43)
	if a == c {
		t.Error("different seeds gave identical resampling (suspicious)")
	}
}

func TestBootstrapCIEdgeCases(t *testing.T) {
	if ci := BootstrapCI(nil, Mean, 0.95, 1000, 1); ci.Point != 0 || ci.Low != 0 || ci.High != 0 {
		t.Errorf("empty sample CI = %v", ci)
	}
	one := BootstrapCI([]float64{5}, Mean, 0.95, 10, 1)
	if one.Point != 5 || one.Low != 5 || one.High != 5 {
		t.Errorf("single-element CI = %v", one)
	}
	if s := one.String(); !strings.Contains(s, "5.00") {
		t.Errorf("String = %q", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad level did not panic")
		}
	}()
	BootstrapCI([]float64{1}, Mean, 1.5, 10, 1)
}

func TestBootstrapCIDefaultResamples(t *testing.T) {
	ci := BootstrapCI([]float64{1, 2, 3}, Mean, 0.9, 0, 1)
	if ci.Level != 0.9 || ci.Point != 2 {
		t.Errorf("ci = %v", ci)
	}
}
