package metrics

import (
	"fmt"
	"math/rand"
)

// CI is a 95 % bootstrap confidence interval for a sample median.
type CI struct {
	Point float64 // the median of the full sample
	Low   float64
	High  float64
}

// String renders the interval compactly.
func (c CI) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f] @95%%", c.Point, c.Low, c.High)
}

// MedianCI estimates a 95 % confidence interval for the median of xs from
// 1000 resamples with replacement, drawn from a generator seeded with 1, so
// the interval is a pure function of xs. The figures report medians over
// 300 network configurations; the interval shows whether differences
// between algorithms are meaningful at that sample size.
func MedianCI(xs []float64) CI {
	if len(xs) == 0 {
		return CI{}
	}
	const resamples = 1000
	rng := rand.New(rand.NewSource(1))
	stats := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for i := range stats {
		for j := range buf {
			buf[j] = xs[rng.Intn(len(xs))]
		}
		stats[i] = Median(buf)
	}
	// A float64 variable, not an untyped constant: the tail fraction is
	// rounded in float64 (0.025000000000000022), not folded exactly to
	// 0.025, which can move an interpolated bound in its last bits.
	level := 0.95
	alpha := (1 - level) / 2
	return CI{
		Point: Median(xs),
		Low:   Percentile(stats, alpha*100),
		High:  Percentile(stats, (1-alpha)*100),
	}
}
