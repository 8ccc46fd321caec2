package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"wadc/internal/sim"
)

func TestBandwidthConversions(t *testing.T) {
	if got := KBps(128); got != 128*1024 {
		t.Errorf("KBps(128) = %v", float64(got))
	}
	if got := Bandwidth(2048).KBps(); got != 2 {
		t.Errorf("KBps() = %v", got)
	}
	if got := KBps(50.0).String(); got != "50.0KB/s" {
		t.Errorf("String = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	t.Run("zero interval panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		New("x", 0, []Bandwidth{1})
	})
	t.Run("empty samples panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		New("x", sim.Second, nil)
	})
	t.Run("floors at minimum", func(t *testing.T) {
		tr := New("x", sim.Second, []Bandwidth{0})
		if tr.At(0) != minBandwidth {
			t.Errorf("At = %v", tr.At(0))
		}
	})
	t.Run("defensive copy", func(t *testing.T) {
		src := []Bandwidth{100, 200}
		tr := New("x", sim.Second, src)
		src[0] = 999
		if tr.At(0) != 100 {
			t.Errorf("trace aliases caller slice: At(0) = %v", tr.At(0))
		}
	})
}

func TestAtSegments(t *testing.T) {
	tr := New("x", 10*sim.Second, []Bandwidth{100, 200, 300})
	tests := []struct {
		at   sim.Time
		want Bandwidth
	}{
		{-5 * sim.Second, 100},
		{0, 100},
		{9 * sim.Second, 100},
		{10 * sim.Second, 200},
		{29 * sim.Second, 300},
		{30 * sim.Second, 300},  // clamped to last
		{500 * sim.Second, 300}, // still clamped
	}
	for _, tt := range tests {
		if got := tr.At(tt.at); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestTransferDurationConstant(t *testing.T) {
	tr := Constant("c", 1000) // 1000 B/s
	if got := tr.TransferDuration(0, 5000); got != 5*time.Second {
		t.Errorf("duration = %v, want 5s", got)
	}
	if got := tr.TransferDuration(0, 0); got != 0 {
		t.Errorf("zero bytes = %v", got)
	}
	if got := tr.TransferDuration(0, -10); got != 0 {
		t.Errorf("negative bytes = %v", got)
	}
}

func TestTransferDurationSpansSegments(t *testing.T) {
	// 10 s at 100 B/s, then 200 B/s forever.
	tr := New("x", 10*sim.Second, []Bandwidth{100, 200})
	// 1000 bytes transferred in the first segment exactly.
	if got := tr.TransferDuration(0, 1000); got != 10*time.Second {
		t.Errorf("exact segment = %v", got)
	}
	// 1400 bytes: 1000 in first 10 s, 400 at 200 B/s = 2 s more.
	if got := tr.TransferDuration(0, 1400); got != 12*time.Second {
		t.Errorf("spanning = %v, want 12s", got)
	}
	// Starting mid-segment: at t=5s, 500 bytes fit before the boundary.
	if got := tr.TransferDuration(5*sim.Second, 700); got != 6*time.Second {
		t.Errorf("mid-segment = %v, want 6s", got)
	}
	// Starting past the end of the trace: last value holds.
	if got := tr.TransferDuration(100*sim.Second, 400); got != 2*time.Second {
		t.Errorf("past end = %v, want 2s", got)
	}
	// Negative start clamps to zero.
	if got := tr.TransferDuration(-5*sim.Second, 1000); got != 10*time.Second {
		t.Errorf("negative start = %v, want 10s", got)
	}
}

func TestBytesInInverse(t *testing.T) {
	tr := New("x", 10*sim.Second, []Bandwidth{100, 250, 50, 400})
	for _, start := range []sim.Time{0, 3 * sim.Second, 15 * sim.Second, 60 * sim.Second} {
		for _, bytes := range []int64{1, 100, 999, 5000, 123456} {
			d := tr.TransferDuration(start, bytes)
			got := tr.BytesIn(start, d)
			// Allow one byte of float slack.
			if math.Abs(float64(got-bytes)) > 1 {
				t.Errorf("BytesIn(%v, TransferDuration(%v, %d)) = %d", start, start, bytes, got)
			}
		}
	}
	if got := tr.BytesIn(0, 0); got != 0 {
		t.Errorf("BytesIn zero duration = %d", got)
	}
	if got := tr.BytesIn(0, -time.Second); got != 0 {
		t.Errorf("BytesIn negative = %d", got)
	}
}

func TestOffset(t *testing.T) {
	tr := New("x", 10*sim.Second, []Bandwidth{100, 200, 300})
	off := tr.Offset(10 * sim.Second)
	if off.At(0) != 200 {
		t.Errorf("Offset At(0) = %v", off.At(0))
	}
	if off.Len() != 2 {
		t.Errorf("Offset Len = %d", off.Len())
	}
	if same := tr.Offset(0); same != tr {
		t.Error("Offset(0) should return the receiver")
	}
	// Offset past the end keeps at least the last sample.
	far := tr.Offset(sim.Hour)
	if far.Len() != 1 || far.At(0) != 300 {
		t.Errorf("far offset = len %d, At(0) %v", far.Len(), far.At(0))
	}
	if !strings.Contains(off.Name(), "x") {
		t.Errorf("Offset name = %q", off.Name())
	}
}

func TestSamplesCopy(t *testing.T) {
	tr := New("x", sim.Second, []Bandwidth{100, 200})
	s := tr.Samples()
	s[0] = 1
	if tr.At(0) != 100 {
		t.Error("Samples() returned aliased storage")
	}
	if tr.Duration() != 2*sim.Second {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if tr.Interval() != sim.Second {
		t.Errorf("Interval = %v", tr.Interval())
	}
}
