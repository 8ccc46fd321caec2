package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestMailboxFIFOWithinPriority(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "mb")
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, m.Recv(p).(int))
		}
	})
	k.Spawn("send", func(p *Proc) {
		p.Hold(time.Second)
		for i := 0; i < 5; i++ {
			m.Send(i, PriorityData)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Errorf("got = %v", got)
	}
}

func TestMailboxPriorityOvertakes(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "mb")
	var got []string
	// Queue up messages before the receiver starts: a barrier message sent
	// last must be delivered first (paper §2.2: barrier messages get
	// priority so they are not stuck behind large data transfers).
	m.Send("data1", PriorityData)
	m.Send("data2", PriorityData)
	m.Send("control", PriorityControl)
	m.Send("barrier", PriorityBarrier)
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, m.Recv(p).(string))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "[barrier control data1 data2]"
	if fmt.Sprint(got) != want {
		t.Errorf("got = %v, want %v", got, want)
	}
}

func TestMailboxMultipleWaitersAllServed(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "mb")
	served := 0
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Recv(p)
			served++
		})
	}
	k.After(time.Second, func() {
		// Three sends arrive "at once"; every waiter must be served even
		// though each Send wakes only one of them.
		m.Send(1, PriorityData)
		m.Send(2, PriorityData)
		m.Send(3, PriorityData)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if served != 3 {
		t.Errorf("served = %d, want 3", served)
	}
}

func TestMailboxRecvBlocksUntilSend(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "mb")
	var recvAt Time
	k.Spawn("recv", func(p *Proc) {
		m.Recv(p)
		recvAt = p.Now()
	})
	k.After(7*time.Second, func() { m.Send("x", PriorityData) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recvAt != 7*Second {
		t.Errorf("recvAt = %v, want 7s", recvAt)
	}
}

// Mailbox has no non-blocking TryRecv or Peek: a Recv on a mailbox that
// already holds messages is the non-blocking case. It returns the
// highest-priority head at once, without advancing the clock, and Len counts
// what is still queued.
func TestMailboxTryRecvAndPeek(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "mb")
	if m.Len() != 0 {
		t.Errorf("Len of empty mailbox = %d", m.Len())
	}
	m.Send("a", PriorityData)
	m.Send("b", PriorityBarrier)
	if m.Len() != 2 {
		t.Errorf("Len = %d", m.Len())
	}
	var got []any
	var at []Time
	var left []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, m.Recv(p))
			at = append(at, p.Now())
			left = append(left, m.Len())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(got) != "[b a]" || fmt.Sprint(at) != fmt.Sprint([]Time{0, 0}) || fmt.Sprint(left) != "[1 0]" {
		t.Errorf("received %v at %v leaving %v queued, want [b a] at [0 0] leaving [1 0]", got, at, left)
	}
	if m.Name() != "mb" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestPriorityString(t *testing.T) {
	tests := []struct {
		p    Priority
		want string
	}{
		{PriorityData, "data"},
		{PriorityControl, "control"},
		{PriorityBarrier, "barrier"},
		{Priority(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Priority(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}
