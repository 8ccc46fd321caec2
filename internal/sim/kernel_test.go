package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"wadc/internal/telemetry"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		tm   Time
		secs float64
	}{
		{"zero", 0, 0},
		{"one second", Second, 1},
		{"90 minutes", 90 * Minute, 5400},
		{"one ms", Millisecond, 0.001},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.tm.Seconds(); got != tt.secs {
				t.Errorf("Seconds() = %v, want %v", got, tt.secs)
			}
			if got := FromSeconds(tt.secs); got != tt.tm {
				t.Errorf("FromSeconds(%v) = %v, want %v", tt.secs, got, tt.tm)
			}
		})
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := 10 * Second
	if got := tm.Add(500 * time.Millisecond); got != 10*Second+500*Millisecond {
		t.Errorf("Add = %v", got)
	}
	if got := (12 * Second).Sub(10 * Second); got != 2*time.Second {
		t.Errorf("Sub = %v", got)
	}
	if got := (90 * Second).String(); got != "90.000s" {
		t.Errorf("String = %q", got)
	}
	if got := FromDuration(3 * time.Second); got != 3*Second {
		t.Errorf("FromDuration = %v", got)
	}
	if got := (3 * Second).Duration(); got != 3*time.Second {
		t.Errorf("Duration = %v", got)
	}
}

func TestCallbackOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(2*time.Second, func() { order = append(order, 2) })
	k.After(1*time.Second, func() { order = append(order, 1) })
	k.After(3*time.Second, func() { order = append(order, 3) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 3*Second {
		t.Errorf("final time = %v", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Second, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestHoldAdvancesTime(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Spawn("holder", func(p *Proc) {
		p.Hold(5 * time.Second)
		at1 = p.Now()
		p.Hold(2500 * time.Millisecond)
		at2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at1 != 5*Second || at2 != 7500*Millisecond {
		t.Errorf("times = %v, %v", at1, at2)
	}
}

func TestHoldNegativeClamped(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Hold(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative hold advanced time to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestHoldUntil(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.HoldUntil(10 * Second)
		if p.Now() != 10*Second {
			t.Errorf("HoldUntil: now = %v", p.Now())
		}
		p.HoldUntil(5 * Second) // in the past: no-op
		if p.Now() != 10*Second {
			t.Errorf("HoldUntil past moved time: %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Hold(2 * time.Second)
			log = append(log, fmt.Sprintf("a@%v", p.Now()))
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Hold(3 * time.Second)
			log = append(log, fmt.Sprintf("b@%v", p.Now()))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// At t=6 both wake; b's wake event was scheduled (at t=3) before a's
	// (at t=4), so FIFO tie-breaking runs b first.
	want := "a@2.000s b@3.000s a@4.000s b@6.000s a@6.000s"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("log = %q, want %q", got, want)
	}
}

func TestRunUntilBounds(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.After(time.Second, func() { fired++ })
	k.After(10*time.Second, func() { fired++ })
	if err := k.RunUntil(5 * Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if k.Now() != 5*Second {
		t.Errorf("now = %v, want 5s", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	k.Every(time.Second, func() {
		count++
		if count == 3 {
			k.Stop()
		}
	})
	err := k.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("count = %d", count)
	}
}

func TestEveryPeriodAndStop(t *testing.T) {
	k := NewKernel()
	var times []Time
	var timer *Timer
	timer = k.Every(10*time.Second, func() {
		times = append(times, k.Now())
		if len(times) == 4 {
			timer.Stop()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 4 || times[0] != 10*Second || times[3] != 40*Second {
		t.Errorf("times = %v", times)
	}
}

func TestEveryInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	NewKernel().Every(0, func() {})
}

func TestTimerStop(t *testing.T) {
	k := NewKernel()
	fired := false
	timer := k.After(time.Second, func() { fired = true })
	if !timer.Stop() {
		t.Error("Stop returned false for pending timer")
	}
	if timer.Stop() {
		t.Error("second Stop returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("stopped timer fired")
	}
	var nilTimer *Timer
	if nilTimer.Stop() {
		t.Error("nil timer Stop returned true")
	}
}

func TestAtClampsPast(t *testing.T) {
	k := NewKernel()
	var firedAt Time = -1
	k.After(10*time.Second, func() {
		k.At(5*Second, func() { firedAt = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedAt != 10*Second {
		t.Errorf("past At fired at %v, want clamped to 10s", firedAt)
	}
}

func TestProcessPanicReported(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) {
		p.Hold(time.Second)
		panic("boom")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "bad") {
		t.Errorf("Run = %v, want panic error mentioning process", err)
	}
}

func TestBlockedProcessesUnwoundAtEnd(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "never")
	w := k.Spawn("waiter", func(p *Proc) {
		m.Recv(p) // never satisfied
		t.Error("waiter returned from Recv")
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !w.finished {
		t.Error("waiter not unwound after Run (goroutine leak)")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.After(10*time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	k.schedule(5*Second, func() {}, nil)
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []telemetry.Event {
		rec := telemetry.NewRecorder()
		k := NewKernel(WithTelemetry(rec))
		rng := rand.New(rand.NewSource(42)) // the model's own seeded stream
		m := NewMailbox(k, "mb")
		res := NewResource(k, "res", 1)
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
				p.Hold(time.Duration(rng.Intn(1000)) * time.Millisecond)
				res.Acquire(p, PriorityData)
				p.Hold(100 * time.Millisecond)
				res.Release()
				m.Send(i, PriorityData)
			})
		}
		k.Spawn("collector", func(p *Proc) {
			for i := 0; i < 4; i++ {
				m.Recv(p)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rec.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("kernel emitted no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different traces:\n%v\n---\n%v", a, b)
	}
}

func TestConditionWaitFor(t *testing.T) {
	k := NewKernel()
	c := NewCondition(k)
	ready := false
	var doneAt Time
	k.Spawn("waiter", func(p *Proc) {
		c.WaitFor(p, func() bool { return ready })
		doneAt = p.Now()
	})
	k.Spawn("setter", func(p *Proc) {
		p.Hold(3 * time.Second)
		c.Signal() // spurious: ready still false
		p.Hold(2 * time.Second)
		ready = true
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if doneAt != 5*Second {
		t.Errorf("waiter finished at %v, want 5s", doneAt)
	}
}

func TestConditionSignalWakesAll(t *testing.T) {
	k := NewKernel()
	c := NewCondition(k)
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.After(time.Second, func() { c.Signal() })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	k := NewKernel()
	panicked := false
	k.After(time.Second, func() {
		defer func() { panicked = recover() != nil }()
		_ = k.Run()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !panicked {
		t.Error("reentrant Run did not panic")
	}
}
