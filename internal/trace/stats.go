package trace

import (
	"math"
	"time"

	"wadc/internal/sim"
)

// SignificantChange is the paper's significant-bandwidth-change statistic:
// a change is significant when bandwidth departs by at least this fraction
// from the last significant level.
const SignificantChange = 0.10

// Stats summarises a bandwidth trace. The paper calibrated its monitoring
// parameters from exactly these statistics: it reports that the expected time
// between significant (>= 10 %) bandwidth changes in its Internet traces was
// about two minutes, and chose T_thres = 40 s as "a little less than half"
// that period.
type Stats struct {
	Mean   Bandwidth
	Min    Bandwidth
	Max    Bandwidth
	StdDev Bandwidth
	// CoV is the coefficient of variation (StdDev / Mean).
	CoV float64
	// SignificantChangeInterval is the mean time between consecutive samples
	// that differ by at least SignificantChange from the last "significant"
	// level (the paper's >= 10 % change statistic).
	SignificantChangeInterval time.Duration
	// SignificantChanges is the number of such changes observed.
	SignificantChanges int
}

// Analyze computes summary statistics.
func Analyze(tr *Trace) Stats {
	s := Stats{Min: math.MaxFloat64}
	var sum, sumSq float64
	for _, v := range tr.samples {
		f := float64(v)
		sum += f
		sumSq += f * f
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	n := float64(len(tr.samples))
	mean := sum / n
	s.Mean = Bandwidth(mean)
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	s.StdDev = Bandwidth(math.Sqrt(variance))
	if mean > 0 {
		s.CoV = float64(s.StdDev) / mean
	}

	s.SignificantChanges = len(tr.ChangePoints())
	if s.SignificantChanges > 0 {
		s.SignificantChangeInterval = tr.Duration().Duration() / time.Duration(s.SignificantChanges)
	} else {
		s.SignificantChangeInterval = tr.Duration().Duration()
	}
	return s
}

// ChangePoint is one significant bandwidth regime change in a trace: at time
// At the trace departed from the previous significant level From to the new
// level To.
type ChangePoint struct {
	At       sim.Time
	From, To Bandwidth
}

// ChangePoints returns the trace's significant bandwidth changes using the
// paper's level-walk statistic: a change is significant when a sample
// departs by at least SignificantChange from the last significant level, and
// that sample becomes the new reference level. This is the seeded
// ground-truth regime-change schedule that detection-lag measurements
// (internal/estacc) and Analyze's SignificantChanges count are both defined
// against.
func (tr *Trace) ChangePoints() []ChangePoint {
	var cps []ChangePoint
	level := float64(tr.samples[0])
	for i, v := range tr.samples[1:] {
		f := float64(v)
		if level > 0 && math.Abs(f-level)/level >= SignificantChange {
			cps = append(cps, ChangePoint{
				At:   tr.interval * sim.Time(i+1),
				From: Bandwidth(level),
				To:   v,
			})
			level = f
		}
	}
	return cps
}

// VariationSeries returns the bandwidth samples covering window starting at
// from, taking every stride-th trace interval, where stride is the window's
// interval count over maxPoints rounded down (at least 1); that leaves fewer
// than 2*maxPoints points. It reproduces the two plots of the paper's Figure 2
// (first ten minutes, and the full two days).
func VariationSeries(tr *Trace, from, window sim.Time, maxPoints int) []Bandwidth {
	if maxPoints <= 0 {
		maxPoints = 1
	}
	n := int(window / tr.interval)
	if n < 1 {
		n = 1
	}
	stride := 1
	if n > maxPoints {
		stride = n / maxPoints
	}
	var bws []Bandwidth
	for i := 0; i < n; i += stride {
		bws = append(bws, tr.At(from+sim.Time(i)*tr.interval))
	}
	return bws
}
