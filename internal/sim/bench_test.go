package sim

import (
	"testing"
	"time"

	"wadc/internal/obs"
	"wadc/internal/telemetry"
)

// countSink is a telemetry sink with no retained state beyond a counter, so
// it measures the pure cost of the emission path without recorder growth.
type countSink struct{ n int64 }

func (s *countSink) Emit(telemetry.Event) { s.n++ }

// pingPong drives rounds hold+send+recv cycles between two processes. Each
// round exercises the scheduler's three hot paths: Hold (event scheduling +
// context switch), Mailbox.Send (enqueue + waiter wake), and Mailbox.Recv
// (dequeue + context switch).
func pingPong(k *Kernel, rounds int) {
	m := NewMailbox(k, "bench")
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Hold(time.Millisecond)
			m.Send(struct{}{}, PriorityControl)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			m.Recv(p)
		}
	})
}

func benchProcessSwitch(b *testing.B, opts ...Option) {
	b.ReportAllocs()
	k := NewKernel(opts...)
	pingPong(k, b.N)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkSimProcessSwitch is the disabled-telemetry hot path: every
// emission site must guard on the nil sink before constructing an event, so
// this must not regress against the pre-telemetry scheduler in time or
// allocations.
func BenchmarkSimProcessSwitch(b *testing.B) {
	benchProcessSwitch(b)
}

// BenchmarkSimProcessSwitchTelemetry measures the same path with a live
// structured sink, i.e. the marginal cost of building and delivering events.
func BenchmarkSimProcessSwitchTelemetry(b *testing.B) {
	benchProcessSwitch(b, WithTelemetry(&countSink{}))
}

// BenchmarkSimProcessSwitchObserved measures the scheduler with a perf
// recorder attached: per dispatch, one event count (two atomics) and two
// region-clock switches (a wall-clock read and an atomic add each).
func BenchmarkSimProcessSwitchObserved(b *testing.B) {
	benchProcessSwitch(b, WithObserver(obs.NewRecorder()))
}

func runAllocs(rounds int, opts ...Option) float64 {
	return testing.AllocsPerRun(10, func() {
		k := NewKernel(opts...)
		pingPong(k, rounds)
		if err := k.Run(); err != nil {
			panic(err)
		}
	})
}

// TestTelemetryEmissionAllocFree: a non-retaining sink must add (near) zero
// allocations per round — events are value structs handed straight to the
// sink. The disabled path is identical to the no-option baseline by
// construction (no sink field set, every site guards on nil), so this bounds
// the enabled path, which is strictly more work.
func TestTelemetryEmissionAllocFree(t *testing.T) {
	const rounds = 400
	base := runAllocs(rounds)
	withSink := runAllocs(rounds, WithTelemetry(&countSink{}))
	// Allow slack for goroutine/heap growth noise: well under one allocation
	// per round, i.e. the emission path itself does not allocate.
	if withSink > base+float64(rounds)/100 {
		t.Errorf("telemetry sink adds allocations: base=%.1f with=%.1f over %d rounds",
			base, withSink, rounds)
	}
}

// TestObserverAllocFree: the observed hot path must not allocate either —
// every obs hook is a field write, an atomic, or a region-clock switch.
// The disabled path is the no-option baseline by construction (nil recorder,
// every hook guarded), exactly like telemetry's nil sink; this bounds the
// strictly-more-expensive enabled path. Labels are disabled because
// relabelling is a per-process (not per-event) cost and may allocate.
func TestObserverAllocFree(t *testing.T) {
	const rounds = 400
	base := runAllocs(rounds)
	rec := obs.NewRecorder()
	rec.DisableLabels()
	observed := runAllocs(rounds, WithObserver(rec))
	if observed > base+float64(rounds)/100 {
		t.Errorf("perf recorder adds allocations: base=%.1f observed=%.1f over %d rounds",
			base, observed, rounds)
	}
}
