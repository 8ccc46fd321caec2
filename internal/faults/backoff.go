package faults

import (
	"math"
	"math/rand"
	"time"
)

// The demand-retry schedule, sized for WAN-scale transfers: image transfers
// on the paper's slow links take tens of seconds, so the first retry must
// not fire while a legitimate transfer is still in flight.
const (
	DefaultRetryBase   = 45 * time.Second
	DefaultRetryFactor = 2.0
	DefaultRetryMax    = 8 * time.Minute
	DefaultRetryJitter = 0.25
)

// RetryDelay returns the recovery layer's wait before demand-retry attempt n
// (0-based): min(Max, Base·Factorⁿ·(1+j)) with the DefaultRetry* constants,
// where j is a jitter drawn uniformly from [0, Jitter) out of rng — the
// simulation's seeded fault stream, so the same rng state always yields the
// same delay — or 0 when rng is nil. Jitter is applied before the cap; since
// Factor >= 1+Jitter, each step's jitter-free minimum clears the previous
// step's jittered maximum, so the schedule never decreases and never exceeds
// Max.
func RetryDelay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(DefaultRetryBase) * math.Pow(DefaultRetryFactor, float64(max(attempt, 0)))
	if rng != nil {
		d *= 1 + DefaultRetryJitter*rng.Float64()
	}
	return time.Duration(min(d, float64(DefaultRetryMax)))
}
