package faults

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestRetryDelayPinned pins the schedule the recovery layer draws, attempts
// 0–5 from one rand.NewSource(7) stream: faulty runs replay their recorded
// digests only while these values hold.
func TestRetryDelayPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	want := []time.Duration{55337536791, 95208911416, 190862440517, 442040595693, 480000000000, 480000000000}
	for n, w := range want {
		if d := RetryDelay(n, rng); d != w {
			t.Errorf("RetryDelay(%d) = %d, want %d", n, d, w)
		}
	}
}

func TestBackoffMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prev := time.Duration(-1)
		for n := 0; n < 40; n++ {
			d := RetryDelay(n, rng)
			if d < prev {
				t.Logf("seed %d: delay(%d)=%v < delay(%d)=%v", seed, n, d, n-1, prev)
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBackoffBoundedProperty(t *testing.T) {
	prop := func(seed int64, attempt uint8) bool {
		d := RetryDelay(int(attempt), rand.New(rand.NewSource(seed)))
		return d > 0 && d <= DefaultRetryMax
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBackoffJitterWithinBoundsProperty(t *testing.T) {
	prop := func(seed int64, attempt uint8) bool {
		n := int(attempt % 20)
		lo := RetryDelay(n, nil) // jitter-free floor (already capped)
		d := RetryDelay(n, rand.New(rand.NewSource(seed)))
		hi := min(time.Duration(float64(lo)*(1+DefaultRetryJitter)), DefaultRetryMax)
		return d >= lo && d <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	c := rand.New(rand.NewSource(7))
	for n := 0; n < 10; n++ {
		if da, dc := RetryDelay(n, a), RetryDelay(n, c); da != dc {
			t.Fatalf("attempt %d: %v != %v from identical rng state", n, da, dc)
		}
	}
}
