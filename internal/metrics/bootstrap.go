package metrics

import (
	"fmt"
	"math/rand"
)

// CI is a bootstrap confidence interval for a sample statistic.
type CI struct {
	Point float64 // the statistic on the full sample
	Low   float64
	High  float64
	Level float64 // e.g. 0.95
}

// String renders the interval compactly.
func (c CI) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f] @%.0f%%", c.Point, c.Low, c.High, c.Level*100)
}

// BootstrapCI estimates a confidence interval for stat(sample) by resampling
// with replacement. It is deterministic for a given seed. The figures report
// means and medians over 300 network configurations; the interval shows
// whether differences between algorithms are meaningful at that sample size.
func BootstrapCI(xs []float64, stat func([]float64) float64, level float64, resamples int, seed int64) CI {
	if len(xs) == 0 {
		return CI{Level: level}
	}
	if level <= 0 || level >= 1 {
		panic(fmt.Sprintf("metrics: confidence level %v out of (0,1)", level))
	}
	if resamples <= 0 {
		resamples = 1000
	}
	rng := rand.New(rand.NewSource(seed))
	stats := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for i := 0; i < resamples; i++ {
		for j := range buf {
			buf[j] = xs[rng.Intn(len(xs))]
		}
		stats[i] = stat(buf)
	}
	alpha := (1 - level) / 2
	return CI{
		Point: stat(xs),
		Low:   Percentile(stats, alpha*100),
		High:  Percentile(stats, (1-alpha)*100),
		Level: level,
	}
}

// MedianCI is BootstrapCI for the median at 95 %.
func MedianCI(xs []float64, seed int64) CI { return BootstrapCI(xs, Median, 0.95, 1000, seed) }
