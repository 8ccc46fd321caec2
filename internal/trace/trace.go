// Package trace models time-varying wide-area network bandwidth.
//
// The paper drove its simulations with two-day Internet bandwidth traces
// collected by repeated 16 KB round-trip transfers between host pairs in the
// US, Europe and Brazil. Those traces are not available, so this package
// provides (a) the trace representation and the piecewise-constant
// integration needed to compute message transfer times against a varying
// bandwidth, and (b) a synthetic generator (see gen.go) calibrated to the
// statistics the paper reports about its traces — most importantly that the
// expected time between significant (>= 10 %) bandwidth changes is about two
// minutes.
package trace

import (
	"fmt"
	"math"
	"time"

	"wadc/internal/sim"
)

// Bandwidth is an application-level network bandwidth in bytes per second.
type Bandwidth float64

// KBps constructs a Bandwidth from kilobytes (1024 bytes) per second.
func KBps(kb float64) Bandwidth { return Bandwidth(kb * 1024) }

// KBps returns the bandwidth in kilobytes per second.
func (b Bandwidth) KBps() float64 { return float64(b) / 1024 }

// String formats the bandwidth in KB/s.
func (b Bandwidth) String() string { return fmt.Sprintf("%.1fKB/s", b.KBps()) }

// minBandwidth floors every bandwidth reading so that transfer times stay
// finite even across pathological trace segments (1 byte/s).
const minBandwidth Bandwidth = 1

// Trace is a piecewise-constant bandwidth series: Samples[i] holds from
// i*Interval (inclusive) to (i+1)*Interval (exclusive). Before the first
// sample the first value holds; after the last segment the last value holds.
// A Trace is immutable after construction and safe to share between
// simulations.
type Trace struct {
	name     string
	interval sim.Time
	samples  []Bandwidth
}

// New constructs a trace. interval must be positive and samples non-empty;
// samples are defensively copied and floored at 1 byte/s.
func New(name string, interval sim.Time, samples []Bandwidth) *Trace {
	if interval <= 0 {
		panic("trace: non-positive sample interval")
	}
	if len(samples) == 0 {
		panic("trace: empty sample list")
	}
	s := make([]Bandwidth, len(samples))
	for i, v := range samples {
		if v < minBandwidth {
			v = minBandwidth
		}
		s[i] = v
	}
	return &Trace{name: name, interval: interval, samples: s}
}

// Constant returns a trace with a single fixed bandwidth, useful for tests
// and for hand-checkable simulations.
func Constant(name string, bw Bandwidth) *Trace {
	return New(name, sim.Second, []Bandwidth{bw})
}

// Name returns the trace name.
func (tr *Trace) Name() string { return tr.name }

// Interval returns the sample spacing.
func (tr *Trace) Interval() sim.Time { return tr.interval }

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.samples) }

// Duration returns the time span covered by explicit samples.
func (tr *Trace) Duration() sim.Time { return tr.interval * sim.Time(len(tr.samples)) }

// At returns the bandwidth at simulated time t.
func (tr *Trace) At(t sim.Time) Bandwidth {
	if t < 0 {
		return tr.samples[0]
	}
	i := int(t / tr.interval)
	if i >= len(tr.samples) {
		return tr.samples[len(tr.samples)-1]
	}
	return tr.samples[i]
}

// segmentEnd returns the end of the constant segment containing t, or a huge
// time if t is past the last explicit sample (the last value holds forever).
func (tr *Trace) segmentEnd(t sim.Time) sim.Time {
	i := int(t / tr.interval)
	if i >= len(tr.samples)-1 {
		return sim.Time(math.MaxInt64)
	}
	return tr.interval * sim.Time(i+1)
}

// TransferDuration returns how long a transfer of the given number of bytes
// takes when it starts at time start, integrating the piecewise-constant
// bandwidth over the transfer (a transfer that spans a bandwidth change
// proceeds at each segment's rate in turn). It does not include any fixed
// per-message start-up cost; the network model adds that separately.
func (tr *Trace) TransferDuration(start sim.Time, bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	remaining := float64(bytes)
	t := start
	for {
		bw := float64(tr.At(t))
		segEnd := tr.segmentEnd(t)
		if segEnd == sim.Time(math.MaxInt64) {
			return (t - start).Duration() + time.Duration(remaining/bw*float64(time.Second))
		}
		capacity := bw * segEnd.Sub(t).Seconds()
		if capacity >= remaining {
			return (t - start).Duration() + time.Duration(remaining/bw*float64(time.Second))
		}
		remaining -= capacity
		t = segEnd
	}
}

// BytesIn returns how many bytes a transfer starting at start moves in
// duration d — the inverse of TransferDuration.
func (tr *Trace) BytesIn(start sim.Time, d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	var bytes float64
	t := start
	end := start.Add(d)
	for t < end {
		segEnd := tr.segmentEnd(t)
		if segEnd > end {
			segEnd = end
		}
		bytes += float64(tr.At(t)) * segEnd.Sub(t).Seconds()
		t = segEnd
	}
	return int64(bytes)
}

// Offset returns a view of the trace shifted so that the view's time 0
// corresponds to the parent's time off. The paper extracted trace segments
// starting at noon; experiments use Offset to do the same.
func (tr *Trace) Offset(off sim.Time) *Trace {
	if off <= 0 {
		return tr
	}
	skip := int(off / tr.interval)
	if skip >= len(tr.samples) {
		skip = len(tr.samples) - 1
	}
	return &Trace{
		name:     fmt.Sprintf("%s+%v", tr.name, off),
		interval: tr.interval,
		samples:  tr.samples[skip:],
	}
}

// Samples returns a copy of the underlying sample slice.
func (tr *Trace) Samples() []Bandwidth {
	out := make([]Bandwidth, len(tr.samples))
	copy(out, tr.samples)
	return out
}
