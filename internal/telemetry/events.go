// Package telemetry is the simulator's structured observability layer: a
// typed event stream emitted by every subsystem (sim kernel, network model,
// dataflow engine, placement policies, monitor, fault injector) through a
// pluggable Sink, a Collector sink that derives the run's metrics from the
// stream and writes them as CSV, and exporters for JSONL event logs and
// Chrome trace-event/Perfetto timelines.
//
// The package is a leaf: it imports nothing from the rest of the repository,
// so every layer (including the sim kernel) can emit events without import
// cycles. Times are raw simulated nanoseconds (the sim package's Time is an
// int64 of nanoseconds).
//
// Telemetry is strictly observational. Sinks must not mutate simulation
// state, and emitters guard every emission behind a nil-sink check, so a run
// without telemetry costs zero allocations on the hot paths and a run with
// telemetry is event-for-event identical to one without (same seed, same
// kernel event log — see the determinism regression in internal/core).
package telemetry

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
)

// Kind discriminates events. Kernel-level kinds (scheduler actions, very high
// volume) come first so they can be filtered cheaply; model-level kinds
// describe the wide-area data-combination run itself.
type Kind uint8

const (
	// KindNone is the zero Kind; it is never emitted.
	KindNone Kind = iota

	// Kernel-level events (one per scheduler action; very high volume).

	// KindProcHold: process Name suspends for Dur.
	KindProcHold
	// KindProcKilled: process Name is killed (host crash or shutdown).
	KindProcKilled
	// KindMailboxSend: a message enqueued on mailbox Name at priority Prio.
	KindMailboxSend
	// KindMailboxRecv: a message dequeued from mailbox Name at priority Prio.
	KindMailboxRecv
	// KindResourceWait: process Aux queues for resource Name at priority Prio.
	KindResourceWait
	// KindResourceGrant: resource Name is granted to process Aux.
	KindResourceGrant

	// Network events.

	// KindTransferStart: a remote transfer of Bytes begins occupying the
	// Host<->Peer link (both NICs acquired) at priority Prio. Wait is the
	// time the message queued for the two endpoint NICs before the link
	// was acquired.
	KindTransferStart
	// KindTransferEnd: the transfer completed after Dur on the link (the
	// legacy total: startup + payload, excluding NIC queueing); Value is the
	// achieved application-level bandwidth in bytes/s. The phase breakdown
	// is Wait (NIC queue wait before the link was acquired), Startup (the
	// fixed per-message start-up cost) and Dur-Startup (payload time at the
	// trace-integrated bandwidth).
	KindTransferEnd
	// KindTransferCut: a mid-transfer link blackout aborted the Host->Peer
	// transfer of Bytes after Dur on the wire (Wait is the NIC queue wait
	// before the link was acquired, Startup the per-message start-up cost).
	KindTransferCut
	// KindMessageDropped: the message was lost after the transfer (Aux is
	// "drop" for a fate draw, "host-down" for a crashed destination).
	KindMessageDropped
	// KindMessageDuplicated: the message was delivered twice.
	KindMessageDuplicated

	// Monitoring events.

	// KindProbeIssued: an on-demand probe of the Host<->Peer link completed;
	// Node is the viewer host, Value the measured bandwidth in bytes/s and
	// Dur the simulated time the probe cost the requesting process (ns; 0
	// in ProbeOracle mode).
	KindProbeIssued
	// KindPassiveMeasured: a passive measurement of Host<->Peer from a
	// transfer of Bytes; Value is the bandwidth in bytes/s.
	KindPassiveMeasured

	// Dataflow events.

	// KindDemandSent: a demand for iteration Iter was sent to producer node
	// Node (living on Peer) from a consumer on Host.
	KindDemandSent
	// KindDataServed: node Node on Host served its Iter output of Bytes to
	// its consumer on Peer. Wait is how long the output sat buffered between
	// becoming ready and this demand releasing it (idle-demand time; it
	// covers the consumer's demand journey too).
	KindDataServed
	// KindSourceRead: server node Node on Host finished reading its Iter
	// partition image of Bytes from disk; Dur is the elapsed read time
	// (disk-queue wait included). With compose-gated events these are the
	// causal edges the critical-path pass walks.
	KindSourceRead
	// KindOperatorFired: operator Node on Host composed its Iter output
	// (Bytes) after Dur of CPU time. Wait is the CPU-queue wait between the
	// gating input's arrival and the compose starting (co-located operators
	// contend for the single CPU).
	KindOperatorFired
	// KindComposeGated: operator Node on Host collected the last of its Iter
	// inputs. Peer is the *gating producer's node id* (the child whose
	// arrival released the compose — the realized critical child), Bytes its
	// payload, Dur the full fetch span since the first demand was
	// dispatched. Together with transfer phases this forms the causal edge
	// from the gating child's serve to this operator's fire.
	KindComposeGated
	// KindRelocationCommitted: operator Node physically moved Host -> Peer
	// (Aux is "barrier" for a coordinated change-over, "policy" otherwise;
	// Bytes is held output that travelled with the move).
	KindRelocationCommitted
	// KindBarrierEpoch: the client broadcast switch order Node (the proposal
	// id) taking effect at iteration Iter.
	KindBarrierEpoch
	// KindBarrierCancelled: a stuck change-over (proposal Node) was released
	// with a no-op order at iteration Iter.
	KindBarrierCancelled
	// KindForwarderBounce: a forwarder on Host bounced Bytes for relocated
	// node Node to Peer.
	KindForwarderBounce
	// KindRetryScheduled: node Node re-demanded iteration Iter (recovery);
	// Value is the attempt number.
	KindRetryScheduled
	// KindReinstantiated: crashed operator Node was re-created on Host
	// starting at iteration Iter.
	KindReinstantiated
	// KindCriticalChanged: node Node's critical-path belief flipped; Value
	// is 1 (now critical) or 0.
	KindCriticalChanged
	// KindRunAborted: the engine gave up (fault plan made completion
	// impossible).
	KindRunAborted

	// Placement events.

	// KindRelocationProposed: a policy (Aux: "global" or "local") proposed
	// moving operator Node from Host to Peer (global proposals cover the
	// whole placement and carry only Aux).
	KindRelocationProposed
	// KindOperatorPlaced: tree node Node started the run on Host (Aux is the
	// node's role: "server", "operator" or "client"). Emitted once per node
	// when the engine starts, so an event log is a self-contained record of
	// the run's placement history.
	KindOperatorPlaced
	// KindImageArrived: the client on Host received iteration Iter's final
	// combined image of Bytes. The arrival sequence is the run's realized
	// throughput, joined against decision records by the attribution pass.
	KindImageArrived

	// Placement-decision audit events. A placement decision is recorded as a
	// Seq-correlated record: one decision-start, the bandwidth snapshot and
	// critical path the optimiser saw, every candidate evaluated, each move
	// chosen, and one decision-end.

	// KindDecisionStart: policy Aux began placement decision Seq on decider
	// host Host at dataflow iteration Iter (-1 when the decision is not tied
	// to an iteration, e.g. the periodic global placer).
	KindDecisionStart
	// KindDecisionBandwidth: decision Seq's snapshot served the Host<->Peer
	// link at Value bytes/s. Aux is the estimate's provenance: "probe" for
	// an on-demand probe, "fresh-cache" for a locally measured cache hit,
	// "piggyback" for an entry learned from another host's piggybacked
	// cache, "stale-fallback" for a probe-timeout pessimistic bound, and
	// "local" for a same-host lookup. Emitted once per distinct link per
	// decision.
	KindDecisionBandwidth
	// KindDecisionPath: decision Seq saw predicted cost Value (seconds) for
	// the placement it started from; Name is the critical path's node ids,
	// comma-joined (client-first for global decisions, the local
	// producers→operator→consumer chain for local ones).
	KindDecisionPath
	// KindDecisionCandidate: decision Seq evaluated moving operator Node from
	// Host to candidate host Peer, predicting cost Value (seconds); Iter is
	// the optimiser round, Aux is "extra" for the local algorithm's random
	// extra candidates.
	KindDecisionCandidate
	// KindDecisionMove: decision Seq chose to move operator Node from Host to
	// Peer, predicting a gain of Value seconds.
	KindDecisionMove
	// KindDecisionEnd: decision Seq finished with predicted cost Value
	// (seconds) after evaluating Bytes candidates.
	KindDecisionEnd

	// Fault-injection events.

	// KindCrashFired: host Host went down; Dur is the outage length.
	KindCrashFired
	// KindHostRecovered: host Host came back up.
	KindHostRecovered

	// Multi-tenant lifecycle events.

	// KindTenantArrived: tenant Tenant joined the shared network (Aux is its
	// placement algorithm, Iter its configured iteration count, Host its
	// client host). Emitted by the multi-tenant harness at the tenant's
	// seeded arrival instant, before its dataflow graph is instantiated.
	KindTenantArrived
	// KindTenantDeparted: tenant Tenant finished (Aux "completed" or
	// "aborted") and released its operators; Iter is the number of
	// iterations it delivered, Dur its residence time (arrival to
	// departure).
	KindTenantDeparted

	// Estimator-accuracy events (internal/estacc): the join of every
	// bandwidth estimate a placement optimiser consumed with the ground
	// truth the network model actually delivered.

	// KindEstimateUsed: placement decision Seq (algorithm Name) consumed an
	// estimate of the Host<->Peer link as seen from viewer host Node. Value
	// is the estimated bandwidth (bytes/s), Bytes the ground-truth mean
	// bandwidth over the estimate's remaining validity window (bytes/s,
	// rounded), Dur the estimate's age at use (ns), Wait the validity
	// window the truth was averaged over (ns), Startup the simulated time
	// the producing probe cost (ns; 0 for cache/piggyback), and Aux the
	// provenance ("probe", "fresh-cache", "piggyback", "stale-fallback" or
	// "local"). The signed relative error is (Value-truth)/truth.
	KindEstimateUsed
	// KindRegimeDetected: the first consumed estimate of the Host<->Peer
	// link reflecting a true >= 10 % bandwidth regime change (viewer Node,
	// decision Seq). Dur is the detection lag (ns since the change in the
	// ground-truth trace, so the change itself happened at At-Dur), Value
	// the new true level and Bytes the old true level (bytes/s, rounded);
	// Aux is "up" or "down".
	KindRegimeDetected

	kindCount // sentinel; keep last
)

var kindNames = [kindCount]string{
	KindNone:                "none",
	KindProcHold:            "proc-hold",
	KindProcKilled:          "proc-killed",
	KindMailboxSend:         "mailbox-send",
	KindMailboxRecv:         "mailbox-recv",
	KindResourceWait:        "resource-wait",
	KindResourceGrant:       "resource-grant",
	KindTransferStart:       "transfer-start",
	KindTransferEnd:         "transfer-end",
	KindTransferCut:         "transfer-cut",
	KindMessageDropped:      "message-dropped",
	KindMessageDuplicated:   "message-duplicated",
	KindProbeIssued:         "probe-issued",
	KindPassiveMeasured:     "passive-measured",
	KindDemandSent:          "demand-sent",
	KindDataServed:          "data-served",
	KindSourceRead:          "source-read",
	KindOperatorFired:       "operator-fired",
	KindComposeGated:        "compose-gated",
	KindRelocationCommitted: "relocation-committed",
	KindBarrierEpoch:        "barrier-epoch",
	KindBarrierCancelled:    "barrier-cancelled",
	KindForwarderBounce:     "forwarder-bounce",
	KindRetryScheduled:      "retry-scheduled",
	KindReinstantiated:      "reinstantiated",
	KindCriticalChanged:     "critical-changed",
	KindRunAborted:          "run-aborted",
	KindRelocationProposed:  "relocation-proposed",
	KindOperatorPlaced:      "operator-placed",
	KindImageArrived:        "image-arrived",
	KindDecisionStart:       "decision-start",
	KindDecisionBandwidth:   "decision-bandwidth",
	KindDecisionPath:        "decision-path",
	KindDecisionCandidate:   "decision-candidate",
	KindDecisionMove:        "decision-move",
	KindDecisionEnd:         "decision-end",
	KindCrashFired:          "crash-fired",
	KindHostRecovered:       "host-recovered",
	KindTenantArrived:       "tenant-arrived",
	KindTenantDeparted:      "tenant-departed",
	KindEstimateUsed:        "estimate-used",
	KindRegimeDetected:      "regime-detected",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, kindCount)
	for k, n := range kindNames {
		m[n] = Kind(k)
	}
	return m
}()

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString is the inverse of String, for decoding event logs.
func KindFromString(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// Kernel reports whether the kind is a scheduler-level event (very high
// volume; usually filtered out of exported logs).
func (k Kind) Kernel() bool { return k >= KindProcHold && k <= KindResourceGrant }

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("telemetry: invalid kind %s", b)
	}
	v, ok := KindFromString(string(b[1 : len(b)-1]))
	if !ok {
		return fmt.Errorf("telemetry: unknown kind %s", b)
	}
	*k = v
	return nil
}

// Event is one structured simulation event. It is a flat value type — no
// pointers, no interfaces — so emitting one allocates nothing. Field meaning
// depends on Kind (see the Kind constants); unused fields are zero and are
// omitted from JSON.
type Event struct {
	// Kind discriminates the event.
	Kind Kind `json:"k"`
	// At is the simulated time in nanoseconds (stamped by the kernel's Emit).
	At int64 `json:"t"`
	// Host is the primary host (source of a transfer, crashed host, …).
	Host int32 `json:"h,omitempty"`
	// Peer is the secondary host (destination, relocation target, …).
	Peer int32 `json:"p,omitempty"`
	// Node is a combination-tree node id (or a proposal id for barriers, or
	// the viewer host for probes).
	Node int32 `json:"n,omitempty"`
	// Iter is the dataflow iteration the event belongs to.
	Iter int32 `json:"i,omitempty"`
	// Prio is the message/resource priority.
	Prio int8 `json:"q,omitempty"`
	// Bytes is a payload size.
	Bytes int64 `json:"b,omitempty"`
	// Dur is a duration in nanoseconds.
	Dur int64 `json:"d,omitempty"`
	// Wait is a kind-specific wait phase in nanoseconds: NIC queue wait for
	// transfers, CPU-queue wait for operator fires, idle-demand time for
	// data serves.
	Wait int64 `json:"w,omitempty"`
	// Startup is the fixed per-message start-up portion of a transfer's Dur,
	// in nanoseconds (the paper's 50 ms), so every transfer event carries
	// its full phase breakdown: Wait | Startup | Dur-Startup.
	Startup int64 `json:"y,omitempty"`
	// Value is a kind-specific measurement (bandwidth, attempt, flag).
	Value float64 `json:"v,omitempty"`
	// Seq correlates the events of one multi-event record (the placement-
	// decision audit trail groups decision-* events by Seq). Seq counters
	// are per policy instance, so in a multi-tenant log records are keyed by
	// (Tenant, Seq).
	Seq int64 `json:"u,omitempty"`
	// Tenant identifies the client query the event belongs to in a
	// multi-tenant run (stamped automatically by the kernel from the
	// emitting process's tenant tag). 0 means single-tenant or shared
	// infrastructure (fault windows, idle hosts).
	Tenant int32 `json:"e,omitempty"`
	// Name is a kind-specific identifier (process, mailbox, resource).
	Name string `json:"s,omitempty"`
	// Aux is a secondary identifier or tag.
	Aux string `json:"x,omitempty"`
}

// Sink receives the event stream. Implementations must be purely
// observational (never mutate simulation state) and need not be goroutine
// safe: the kernel is single-threaded and each run owns its sinks.
type Sink interface {
	Emit(ev Event)
}

// multi fans an event out to several sinks in order.
type multi struct{ sinks []Sink }

func (m *multi) Emit(ev Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// Multi combines sinks into one, dropping nils and flattening nested Multis.
// A nil pointer counts as nil, so a nil *Collector passed as a Sink adds
// nothing. It returns nil if every argument is nil, and the one live sink
// unwrapped if there is only one.
func Multi(sinks ...Sink) Sink {
	var one Sink
	live := 0
	for _, s := range sinks {
		if !isNil(s) {
			one = s
			live++
		}
	}
	switch live {
	case 0:
		return nil
	case 1:
		return one
	}
	var flat []Sink
	for _, s := range sinks {
		if m, ok := s.(*multi); ok && m != nil {
			flat = append(flat, m.sinks...)
		} else if !isNil(s) {
			flat = append(flat, s)
		}
	}
	return &multi{sinks: flat}
}

// isNil reports whether s is nil or a nil pointer.
func isNil(s Sink) bool {
	v := reflect.ValueOf(s)
	return !v.IsValid() || v.Kind() == reflect.Pointer && v.IsNil()
}

// modelOnly forwards only model-level events.
type modelOnly struct{ next Sink }

func (m *modelOnly) Emit(ev Event) {
	if !ev.Kind.Kernel() {
		m.next.Emit(ev)
	}
}

// ModelOnly wraps a sink so it only sees model-level events, dropping the
// very high-volume kernel scheduler kinds. Exported event logs and timelines
// are built from this view.
func ModelOnly(next Sink) Sink {
	if next == nil {
		return nil
	}
	return &modelOnly{next}
}

// Recorder is an in-memory sink, the staging buffer for exporters and the
// basis of the determinism regression (two same-seed runs must record
// hash-identical streams).
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Sink.
func (r *Recorder) Emit(ev Event) { r.events = append(r.events, ev) }

// Events returns the recorded stream (not a copy).
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Hash returns the FNV-1a digest of the recorded stream.
func (r *Recorder) Hash() uint64 { return Hash(r.events) }

// Hash folds an event stream into an FNV-1a digest over a fixed binary
// encoding, so two runs can be compared event-for-event without holding both
// logs. The encoding covers every field.
func Hash(events []Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range events {
		ev := &events[i]
		w(uint64(ev.Kind))
		w(uint64(ev.At))
		w(uint64(int64(ev.Host)))
		w(uint64(int64(ev.Peer)))
		w(uint64(int64(ev.Node)))
		w(uint64(int64(ev.Iter)))
		w(uint64(int64(ev.Prio)))
		w(uint64(ev.Bytes))
		w(uint64(ev.Dur))
		w(uint64(ev.Wait))
		w(uint64(ev.Startup))
		w(math.Float64bits(ev.Value))
		w(uint64(ev.Seq))
		w(uint64(int64(ev.Tenant)))
		h.Write([]byte(ev.Name))
		h.Write([]byte{0})
		h.Write([]byte(ev.Aux))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
