// Package obs is the host-process performance observability layer: region
// timers, throughput counters, pprof labels, and a progress heartbeat that
// attribute real wall-clock cost (CPU, allocations, heap) to simulator
// subsystems and tenants.
//
// It is deliberately separate from internal/telemetry, which records what
// happens in *virtual* time. obs answers a different question — where does
// the host process spend its time while producing that virtual history —
// and therefore is the one sanctioned place in the simulator allowed to
// read the wall clock. simlint's simclock analyzer bans time.Now and
// friends everywhere else in the virtual-time packages and exempts exactly
// this package (the "wall-clock seam"); see DESIGN.md §11.
//
// The contract mirrors telemetry's guard-before-construct rule: all hooks
// in hot paths are guarded on a nil *Recorder, so a run without a recorder
// pays zero allocations and no atomic traffic.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Subsystem identifies which layer of the simulator is executing, for
// wall-time attribution and pprof labelling. The zero value Other is the
// catch-all for untagged work.
type Subsystem uint8

const (
	// SubsysOther is untagged work: processes nobody claimed.
	SubsysOther Subsystem = iota
	// SubsysSetup is harness work outside the kernel loop: building the
	// network, spawning tenants, assembling results.
	SubsysSetup
	// SubsysSim is the kernel itself: heap operations, process switching,
	// and everything else the scheduler does between dispatches.
	SubsysSim
	// SubsysNet is the network model: NIC arbitration and transfer timing.
	SubsysNet
	// SubsysDataflow is the combination engine: server/operator/client
	// loops, message handling, compose work.
	SubsysDataflow
	// SubsysPlacement is the placement layer: monitors, optimisers,
	// relocation decisions.
	SubsysPlacement
	// SubsysRecovery is fault handling: forwarders, retries, respawns.
	SubsysRecovery

	// NumSubsystems bounds the enum for array-indexed accounting.
	NumSubsystems
)

var subsystemNames = [NumSubsystems]string{
	SubsysOther:     "other",
	SubsysSetup:     "setup",
	SubsysSim:       "sim",
	SubsysNet:       "netmodel",
	SubsysDataflow:  "dataflow",
	SubsysPlacement: "placement",
	SubsysRecovery:  "recovery",
}

// String returns the subsystem's label as used in reports and pprof labels.
func (s Subsystem) String() string {
	if s < NumSubsystems {
		return subsystemNames[s]
	}
	return "other"
}

// Recorder accumulates wall-clock attribution and throughput counters for
// one run. The region-accounting fields (cur, lastNs) are single-writer:
// the simulator is cooperatively scheduled, so exactly one goroutine holds
// control at any moment and the kernel's coroutine switches order the
// writes.
// The accumulators are atomics so the progress goroutine can read a live
// snapshot without racing that single writer.
type Recorder struct {
	start time.Time

	// cur/lastNs implement the region clock: SwitchTo accrues the wall
	// nanoseconds since lastNs to the outgoing subsystem. Because every
	// instant is attributed to exactly one subsystem, the per-subsystem
	// shares sum to the measured run time by construction.
	cur    Subsystem
	lastNs int64

	wall [NumSubsystems]atomic.Int64

	events    atomic.Int64 // kernel events dispatched
	virtualNs atomic.Int64 // latest simulated timestamp seen
	workDone  atomic.Int64 // progress units completed (e.g. image arrivals)
	workTotal atomic.Int64 // expected progress units, 0 if unknown

	peakHeap         atomic.Uint64
	startMallocs     uint64
	startTotalAlloc  uint64
	gcBase           gcSnapshot
	labelsEnabled    bool
	heartbeatRunning atomic.Bool
}

// NewRecorder starts a recorder: the region clock begins now, in Setup,
// and the allocation baseline is captured so the final report counts only
// this run's allocations.
func NewRecorder() *Recorder {
	r := &Recorder{start: time.Now(), cur: SubsysSetup, labelsEnabled: true}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.startMallocs = ms.Mallocs
	r.startTotalAlloc = ms.TotalAlloc
	r.peakHeap.Store(ms.HeapAlloc)
	r.gcBase = readGCSnapshot()
	return r
}

// nowNs returns nanoseconds since the recorder started. This — with the
// progress ticker — is the simulator's only wall-clock read.
func (r *Recorder) nowNs() int64 { return int64(time.Since(r.start)) }

// SwitchTo attributes the wall time since the previous switch to the
// outgoing subsystem and makes s current. Must only be called from the
// goroutine currently holding simulator control (single writer).
func (r *Recorder) SwitchTo(s Subsystem) {
	now := r.nowNs()
	r.wall[r.cur].Add(now - r.lastNs)
	r.lastNs = now
	r.cur = s
}

// Current returns the subsystem the region clock is attributing to.
func (r *Recorder) Current() Subsystem { return r.cur }

// CountEvent records one kernel event dispatch at virtual time vnowNs.
func (r *Recorder) CountEvent(vnowNs int64) {
	r.events.Add(1)
	r.virtualNs.Store(vnowNs)
}

// AddEvents folds n kernel events into the counter at once. Sweep
// harnesses use it to account a completed cell's total into a sweep-level
// recorder that was not attached to the cell's kernel (cells run
// concurrently, and the single-writer region clock cannot be shared).
func (r *Recorder) AddEvents(n int64) { r.events.Add(n) }

// AddWork declares n more expected progress units on top of the current
// total (0 = unknown), enabling percentage and ETA in the progress
// heartbeat.
func (r *Recorder) AddWork(n int64) { r.workTotal.Add(n) }

// WorkDone records n completed progress units.
func (r *Recorder) WorkDone(n int64) { r.workDone.Add(n) }

// Events returns the number of kernel events counted so far.
func (r *Recorder) Events() int64 { return r.events.Load() }

// SamplePeakHeap reads current heap usage and folds it into the peak-heap
// watermark. The progress heartbeat calls it on every tick; the final
// report samples once more, so short runs still get one measurement.
func (r *Recorder) SamplePeakHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := r.peakHeap.Load()
		if ms.HeapAlloc <= old {
			return old
		}
		if r.peakHeap.CompareAndSwap(old, ms.HeapAlloc) {
			return ms.HeapAlloc
		}
	}
}

// DisableLabels turns off pprof goroutine labelling (used by tests that
// compare labelled and unlabelled runs).
func (r *Recorder) DisableLabels() { r.labelsEnabled = false }

// LabelsEnabled reports whether pprof goroutine labels should be applied.
func (r *Recorder) LabelsEnabled() bool { return r.labelsEnabled }

// snapshot captures the counters for the progress heartbeat without
// touching the single-writer region clock.
type snapshot struct {
	wallNs    int64
	events    int64
	virtualNs int64
	workDone  int64
	workTotal int64
}

func (r *Recorder) snap() snapshot {
	return snapshot{
		wallNs:    r.nowNs(),
		events:    r.events.Load(),
		virtualNs: r.virtualNs.Load(),
		workDone:  r.workDone.Load(),
		workTotal: r.workTotal.Load(),
	}
}

// Report finalizes the region clock (attributing the tail to the current
// subsystem) and returns the run's performance report, with the network's
// transfer and byte totals as the run counted them. Call it once, after the
// run completes, from the goroutine that owns the recorder.
func (r *Recorder) Report(transfers, bytesMoved int64) *Report {
	r.SwitchTo(r.cur) // accrue the tail; total == lastNs afterwards
	total := r.lastNs
	if total <= 0 {
		total = 1 // degenerate zero-length run; avoid dividing by zero
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := r.SamplePeakHeap()

	rep := &Report{
		WallNs:        total,
		Events:        r.events.Load(),
		Transfers:     transfers,
		BytesMoved:    bytesMoved,
		VirtualNs:     r.virtualNs.Load(),
		WorkDone:      r.workDone.Load(),
		WorkTotal:     r.workTotal.Load(),
		Allocs:        ms.Mallocs - r.startMallocs,
		AllocBytes:    ms.TotalAlloc - r.startTotalAlloc,
		PeakHeapBytes: peak,
		GC:            readGCSnapshot().delta(r.gcBase),
	}
	secs := float64(total) / 1e9
	rep.EventsPerSec = float64(rep.Events) / secs
	rep.TransfersPerSec = float64(rep.Transfers) / secs
	rep.MBPerSec = float64(rep.BytesMoved) / 1e6 / secs
	for s := Subsystem(0); s < NumSubsystems; s++ {
		ns := r.wall[s].Load()
		rep.Subsystems = append(rep.Subsystems, SubsystemShare{
			Name:   s.String(),
			WallNs: ns,
			Share:  float64(ns) / float64(total),
		})
	}
	return rep
}
