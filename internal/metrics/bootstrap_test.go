package metrics

import (
	"math/rand"
	"testing"
)

func TestBootstrapCIBracketsTruth(t *testing.T) {
	// Sample from a known distribution; the median's interval should hold
	// the sample median, shrink with sample size, and at 2000 samples
	// bracket the true median. (The 20-sample draw of this seed has median
	// 10.56, two standard errors out, so its interval misses 10.)
	rng := rand.New(rand.NewSource(1))
	small := make([]float64, 20)
	large := make([]float64, 2000)
	for i := range small {
		small[i] = 10 + rng.NormFloat64()
	}
	for i := range large {
		large[i] = 10 + rng.NormFloat64()
	}
	ciSmall := MedianCI(small)
	ciLarge := MedianCI(large)
	for _, ci := range []CI{ciSmall, ciLarge} {
		if ci.Low > ci.Point || ci.Point > ci.High {
			t.Errorf("interval does not contain point: %v", ci)
		}
	}
	if ciLarge.Low > 10 || ciLarge.High < 10 {
		t.Errorf("interval misses true median 10: %v", ciLarge)
	}
	if (ciLarge.High - ciLarge.Low) >= (ciSmall.High - ciSmall.Low) {
		t.Errorf("CI did not shrink: small %v, large %v", ciSmall, ciLarge)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := MedianCI(xs)
	b := MedianCI(xs)
	if a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
	// The resampling stream is seeded inside MedianCI, so the interval is
	// pinned.
	if want := (CI{Point: 4.5, Low: 2.5, High: 7}); a != want {
		t.Errorf("MedianCI = %+v, want %+v", a, want)
	}
	// On this sample the tail fraction's rounding shows in the last bits of
	// the low bound: (1-0.95)/2 in float64 gives 1.5255370672868311, the
	// exact 0.025 would give 1.525537067286829.
	src := rand.New(rand.NewSource(7))
	ys := make([]float64, 5+src.Intn(60))
	for i := range ys {
		ys[i] = 0.5 + 3*src.Float64()
	}
	if want := (CI{Point: 1.7635072389064845, Low: 1.5255370672868311, High: 2.587067224294754}); MedianCI(ys) != want {
		t.Errorf("MedianCI = %#v, want %#v", MedianCI(ys), want)
	}
}

func TestBootstrapCIEdgeCases(t *testing.T) {
	if ci := MedianCI(nil); ci != (CI{}) {
		t.Errorf("empty sample CI = %v", ci)
	}
	one := MedianCI([]float64{5})
	if one.Point != 5 || one.Low != 5 || one.High != 5 {
		t.Errorf("single-element CI = %v", one)
	}
	if s := one.String(); s != "5.00 [5.00, 5.00] @95%" {
		t.Errorf("String = %q", s)
	}
}
