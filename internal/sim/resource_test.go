package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestResourceSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "nic", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, PriorityData, 10*time.Second)
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{10 * Second, 20 * Second, 30 * Second}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("done[%d] = %v, want %v", i, done[i], want[i])
		}
	}
	if r.QueueLen() != 0 {
		t.Errorf("QueueLen = %d", r.QueueLen())
	}
	if r.Name() != "nic" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestResourcePriorityGrantOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "nic", 1)
	var order []string
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p, PriorityData)
		p.Hold(10 * time.Second)
		r.Release()
	})
	spawnAt := func(name string, prio Priority, delay time.Duration) {
		k.Spawn(name, func(p *Proc) {
			p.Hold(delay)
			r.Acquire(p, prio)
			order = append(order, name)
			r.Release()
		})
	}
	spawnAt("low1", PriorityData, time.Second)
	spawnAt("low2", PriorityData, 2*time.Second)
	spawnAt("barrier", PriorityBarrier, 3*time.Second)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "[barrier low1 low2]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestResourceCapacityN(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, PriorityData, 10*time.Second)
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two run 0-10s, two run 10-20s.
	want := []Time{10 * Second, 10 * Second, 20 * Second, 20 * Second}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("done[%d] = %v, want %v", i, done[i], want[i])
		}
	}
}

// Resource has no non-blocking TryAcquire: an Acquire of an idle unit is the
// non-blocking case. It is granted at once, without advancing the clock; an
// Acquire of the busy unit queues; InUse counts the holder until Release.
func TestResourceTryAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "nic", 1)
	firstAt, secondAt := Time(-1), Time(-1)
	k.Spawn("first", func(p *Proc) {
		r.Acquire(p, PriorityData)
		firstAt = p.Now()
		p.Hold(5 * time.Second)
		r.Release()
	})
	k.Spawn("second", func(p *Proc) {
		r.Acquire(p, PriorityData)
		secondAt = p.Now()
		r.Release()
	})
	k.After(time.Second, func() {
		if r.InUse() != 1 || r.QueueLen() != 1 {
			t.Errorf("at 1s InUse = %d, QueueLen = %d, want 1/1", r.InUse(), r.QueueLen())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firstAt != 0 || secondAt != 5*Second {
		t.Errorf("granted at %v and %v, want 0 and 5s", firstAt, secondAt)
	}
	if r.InUse() != 0 {
		t.Errorf("InUse after release = %d", r.InUse())
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "nic", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 did not panic")
		}
	}()
	NewResource(NewKernel(), "bad", 0)
}
