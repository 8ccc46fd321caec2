package sim

import (
	"testing"
	"time"
)

func TestRunUntilResume(t *testing.T) {
	// RunUntil leaves future events intact; a second call with a larger
	// bound executes them.
	k := NewKernel()
	var fired []Time
	for _, d := range []time.Duration{time.Second, 3 * time.Second, 5 * time.Second} {
		k.After(d, func() { fired = append(fired, k.Now()) })
	}
	if err := k.RunUntil(2 * Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("after first bound: fired = %v", fired)
	}
	if err := k.RunUntil(10 * Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 5*Second {
		t.Errorf("after second bound: fired = %v", fired)
	}
}

func TestRunUntilThenRun(t *testing.T) {
	k := NewKernel()
	count := 0
	k.After(10*time.Second, func() { count++ })
	if err := k.RunUntil(Second); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatal("event fired early")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

func TestSpawnFromCallback(t *testing.T) {
	// Spawning a process from a scheduler callback must work (the bootstrap
	// pattern core.Run uses).
	k := NewKernel()
	var done Time
	k.After(time.Second, func() {
		k.Spawn("late", func(p *Proc) {
			p.Hold(2 * time.Second)
			done = p.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3*Second {
		t.Errorf("done = %v, want 3s", done)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childDone Time
	k.Spawn("parent", func(p *Proc) {
		p.Hold(time.Second)
		k.Spawn("child", func(c *Proc) {
			c.Hold(time.Second)
			childDone = c.Now()
		})
		p.Hold(5 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childDone != 2*Second {
		t.Errorf("childDone = %v, want 2s", childDone)
	}
}

func TestRunUntilUnwindsProcesses(t *testing.T) {
	// Run/RunUntil are terminal for process goroutines: when they return,
	// every still-blocked process has been unwound so no goroutines leak.
	// A receiver blocked across the bound therefore never completes, and
	// only pure callback events survive into a later RunUntil call.
	k := NewKernel()
	m := NewMailbox(k, "mb")
	var got any
	recv := k.Spawn("recv", func(p *Proc) { got = m.Recv(p) })
	k.After(10*time.Second, func() { m.Send("late", PriorityData) })
	if err := k.RunUntil(Second); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("received early")
	}
	if !recv.finished {
		t.Error("receiver not unwound after RunUntil")
	}
	// The message still gets sent by the surviving callback, but the
	// receiver is gone: it queues in the mailbox.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("unwound receiver completed: got = %v", got)
	}
	if m.Len() != 1 {
		t.Errorf("mailbox len = %d, want 1 (undelivered)", m.Len())
	}
}
