package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSubsystemString(t *testing.T) {
	want := map[Subsystem]string{
		SubsysOther:     "other",
		SubsysSetup:     "setup",
		SubsysSim:       "sim",
		SubsysNet:       "netmodel",
		SubsysDataflow:  "dataflow",
		SubsysPlacement: "placement",
		SubsysRecovery:  "recovery",
		Subsystem(250):  "other",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Subsystem(%d).String() = %q, want %q", s, got, name)
		}
	}
}

func TestRecorderSharesSumToOne(t *testing.T) {
	r := NewRecorder()
	r.SwitchTo(SubsysSim)
	spin(time.Millisecond)
	r.SwitchTo(SubsysDataflow)
	spin(time.Millisecond)
	r.SwitchTo(SubsysNet)
	spin(time.Millisecond)
	rep := r.Report(0, 0)

	if got := rep.ShareSum(); got < 0.999 || got > 1.001 {
		t.Fatalf("ShareSum = %v, want ~1.0", got)
	}
	var wall int64
	for _, s := range rep.Subsystems {
		if s.WallNs < 0 {
			t.Errorf("subsystem %s has negative wall %d", s.Name, s.WallNs)
		}
		wall += s.WallNs
	}
	if wall != rep.WallNs {
		t.Errorf("subsystem wall sum %d != total %d", wall, rep.WallNs)
	}
	byName := make(map[string]int64)
	for _, s := range rep.Subsystems {
		byName[s.Name] = s.WallNs
	}
	for _, name := range []string{"sim", "dataflow", "netmodel"} {
		if byName[name] < int64(500*time.Microsecond) {
			t.Errorf("subsystem %s accrued only %dns, want >= 0.5ms", name, byName[name])
		}
	}
}

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 10; i++ {
		r.CountEvent(int64(i) * 1000)
	}
	r.AddWork(7)
	r.AddWork(3)
	r.WorkDone(4)
	rep := r.Report(2, 8192)

	if rep.Events != 10 {
		t.Errorf("Events = %d, want 10", rep.Events)
	}
	if rep.Transfers != 2 || rep.BytesMoved != 8192 {
		t.Errorf("Transfers/Bytes = %d/%d, want 2/8192", rep.Transfers, rep.BytesMoved)
	}
	if rep.VirtualNs != 9000 {
		t.Errorf("VirtualNs = %d, want 9000", rep.VirtualNs)
	}
	if rep.WorkTotal != 10 || rep.WorkDone != 4 {
		t.Errorf("Work = %d/%d, want 4/10", rep.WorkDone, rep.WorkTotal)
	}
	if rep.EventsPerSec <= 0 {
		t.Errorf("EventsPerSec = %v, want > 0", rep.EventsPerSec)
	}
	if rep.PeakHeapBytes == 0 {
		t.Error("PeakHeapBytes = 0, want a sampled heap size")
	}
}

func TestReportFormat(t *testing.T) {
	r := NewRecorder()
	r.SwitchTo(SubsysSim)
	spin(time.Millisecond)
	r.CountEvent(5e9)
	rep := r.Report(0, 0)
	out := rep.Format()
	for _, want := range []string{
		"host-process performance report",
		"wall time",
		"events/s",
		"subsystem wall-time shares",
		"sim",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.SwitchTo(SubsysDataflow)
	r.CountEvent(123)
	rep := r.Report(1, 999)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if got.Events != rep.Events || got.Transfers != rep.Transfers ||
		got.WallNs != rep.WallNs || len(got.Subsystems) != len(rep.Subsystems) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, rep)
	}
}

func TestReportCSV(t *testing.T) {
	r := NewRecorder()
	r.CountEvent(1)
	rep := r.Report(0, 0)
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"section,name,value,share",
		"subsystem,sim,",
		"metric,events,1,",
		"metric,events_per_sec,",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	wantLines := 1 + int(NumSubsystems) + 13 + 10 // header, subsystems, scalars, gc scalars
	if len(lines) != wantLines {
		t.Errorf("CSV has %d lines, want %d", len(lines), wantLines)
	}
	for _, want := range []string{"metric,gc_cycles,", "metric,gc_heap_goal_bytes,"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestProgressHeartbeat(t *testing.T) {
	r := NewRecorder()
	var buf syncBuffer
	p := NewProgress(r, &buf, 5*time.Millisecond)
	p.Start()
	for i := 0; i < 100; i++ {
		r.CountEvent(int64(i))
	}
	r.AddWork(10)
	r.WorkDone(5)
	time.Sleep(25 * time.Millisecond)
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "[obs]") || !strings.Contains(out, "events") {
		t.Fatalf("heartbeat output missing expected fields:\n%s", out)
	}
	if !strings.Contains(out, "(5/10)") {
		t.Errorf("heartbeat output missing work progress:\n%s", out)
	}
	// Stop always prints a final line, so even a fast run reports totals.
	if strings.Count(out, "[obs]") < 2 {
		t.Errorf("expected at least 2 heartbeat lines (ticks + final), got:\n%s", out)
	}
	// Stop again is a no-op.
	p.Stop()
}

func TestProgressStopWithoutStart(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(NewRecorder(), &buf, time.Second)
	p.Stop() // must not panic or print
	if buf.Len() != 0 {
		t.Errorf("Stop without Start printed: %q", buf.String())
	}
}

func TestHelpers(t *testing.T) {
	if got := withCommas(1234567); got != "1,234,567" {
		t.Errorf("withCommas(1234567) = %q", got)
	}
	if got := withCommas(42); got != "42" {
		t.Errorf("withCommas(42) = %q", got)
	}
	if got := withCommas(-1234); got != "-1,234" {
		t.Errorf("withCommas(-1234) = %q", got)
	}
	if got := humanRate(2.5e6); got != "2.5M" {
		t.Errorf("humanRate(2.5e6) = %q", got)
	}
	if got := humanRate(3400); got != "3k" {
		t.Errorf("humanRate(3400) = %q", got)
	}
	if got := humanBytes(3 << 20); got != "3.0 MB" {
		t.Errorf("humanBytes(3MB) = %q", got)
	}
}

func TestLabelGoroutine(t *testing.T) {
	// Exercise the cached and uncached paths; correctness of the labels
	// themselves is the runtime's business.
	LabelGoroutine(SubsysNet, 3)
	LabelGoroutine(SubsysDataflow, 100000)
	LabelGoroutine(Subsystem(99), -1)
}

// spin burns wall time without sleeping so region accounting accrues CPU.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the heartbeat goroutine
// writes while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
