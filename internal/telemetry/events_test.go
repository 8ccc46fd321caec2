package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindNone; k < kindCount; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindFromString(name)
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v, %v; want %v", name, got, ok, k)
		}
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Error("KindFromString accepted an unknown name")
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := KindNone; k < kindCount; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var got Kind
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != k {
			t.Errorf("round trip %v -> %s -> %v", k, b, got)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Error("unmarshal accepted an unknown kind")
	}
}

// kindSamples holds one representative, fully-populated event per kind. The
// exhaustiveness test below fails when a new Kind ships without an entry
// here, so every kind is forced through a JSONL round trip before it can be
// emitted anywhere — no half-wired kinds.
var kindSamples = map[Kind]Event{
	KindProcHold:            {Kind: KindProcHold, At: 1, Name: "op3", Dur: 500},
	KindProcKilled:          {Kind: KindProcKilled, At: 2, Name: "server1"},
	KindMailboxSend:         {Kind: KindMailboxSend, At: 3, Name: "h2:n5", Prio: 1},
	KindMailboxRecv:         {Kind: KindMailboxRecv, At: 4, Name: "h2:n5", Prio: 2},
	KindResourceWait:        {Kind: KindResourceWait, At: 5, Name: "nic2", Aux: "op3", Prio: 1},
	KindResourceGrant:       {Kind: KindResourceGrant, At: 6, Name: "nic2", Aux: "op3"},
	KindTransferStart:       {Kind: KindTransferStart, At: 7, Host: 1, Peer: 2, Bytes: 4096, Prio: 1, Wait: 12},
	KindTransferEnd:         {Kind: KindTransferEnd, At: 8, Host: 1, Peer: 2, Bytes: 4096, Dur: 100, Wait: 12, Startup: 50, Value: 65536},
	KindTransferCut:         {Kind: KindTransferCut, At: 9, Host: 1, Peer: 2, Bytes: 4096, Dur: 50, Wait: 12, Startup: 50},
	KindMessageDropped:      {Kind: KindMessageDropped, At: 10, Host: 1, Peer: 2, Bytes: 128, Aux: "drop"},
	KindMessageDuplicated:   {Kind: KindMessageDuplicated, At: 11, Host: 1, Peer: 2, Bytes: 128},
	KindProbeIssued:         {Kind: KindProbeIssued, At: 12, Host: 0, Peer: 3, Node: 4, Value: 32768, Dur: 5e8},
	KindPassiveMeasured:     {Kind: KindPassiveMeasured, At: 13, Host: 0, Peer: 3, Bytes: 65536, Value: 32768},
	KindDemandSent:          {Kind: KindDemandSent, At: 14, Node: 5, Host: 4, Peer: 2, Iter: 7},
	KindDataServed:          {Kind: KindDataServed, At: 15, Node: 5, Host: 2, Peer: 4, Iter: 7, Bytes: 131072, Wait: 250},
	KindSourceRead:          {Kind: KindSourceRead, At: 15, Node: 1, Host: 3, Iter: 7, Bytes: 131072, Dur: 42666},
	KindOperatorFired:       {Kind: KindOperatorFired, At: 16, Node: 5, Host: 2, Iter: 7, Bytes: 131072, Dur: 900, Wait: 30},
	KindComposeGated:        {Kind: KindComposeGated, At: 16, Node: 5, Host: 2, Peer: 1, Iter: 7, Bytes: 65536, Dur: 1200},
	KindRelocationCommitted: {Kind: KindRelocationCommitted, At: 17, Node: 5, Host: 2, Peer: 3, Bytes: 1024, Aux: "barrier"},
	KindBarrierEpoch:        {Kind: KindBarrierEpoch, At: 18, Node: 1, Iter: 12, Host: 8},
	KindBarrierCancelled:    {Kind: KindBarrierCancelled, At: 19, Node: 1, Iter: 12},
	KindForwarderBounce:     {Kind: KindForwarderBounce, At: 20, Node: 5, Host: 2, Peer: 3, Bytes: 131072},
	KindRetryScheduled:      {Kind: KindRetryScheduled, At: 21, Node: 5, Iter: 7, Value: 2},
	KindReinstantiated:      {Kind: KindReinstantiated, At: 22, Node: 5, Host: 4, Iter: 7},
	KindCriticalChanged:     {Kind: KindCriticalChanged, At: 23, Node: 5, Host: 2, Value: 1},
	KindRunAborted:          {Kind: KindRunAborted, At: 24},
	KindRelocationProposed:  {Kind: KindRelocationProposed, At: 25, Node: 5, Host: 2, Peer: 3, Aux: "local"},
	KindOperatorPlaced:      {Kind: KindOperatorPlaced, At: 0, Node: 5, Host: 2, Aux: "operator"},
	KindImageArrived:        {Kind: KindImageArrived, At: 26, Host: 8, Iter: 7, Bytes: 262144},
	KindDecisionStart:       {Kind: KindDecisionStart, At: 27, Host: 8, Iter: -1, Seq: 3, Aux: "global"},
	KindDecisionBandwidth:   {Kind: KindDecisionBandwidth, At: 28, Host: 0, Peer: 3, Value: 32768, Seq: 3, Aux: "fresh-cache"},
	KindDecisionPath:        {Kind: KindDecisionPath, At: 29, Value: 12.5, Seq: 3, Name: "15,14,12,8"},
	KindDecisionCandidate:   {Kind: KindDecisionCandidate, At: 30, Node: 5, Host: 2, Peer: 3, Iter: 1, Value: 11.25, Seq: 3},
	KindDecisionMove:        {Kind: KindDecisionMove, At: 31, Node: 5, Host: 2, Peer: 3, Value: 1.25, Seq: 3},
	KindDecisionEnd:         {Kind: KindDecisionEnd, At: 32, Value: 11.25, Bytes: 42, Seq: 3},
	KindCrashFired:          {Kind: KindCrashFired, At: 33, Host: 2, Dur: 90e9},
	KindHostRecovered:       {Kind: KindHostRecovered, At: 34, Host: 2},
	KindTenantArrived:       {Kind: KindTenantArrived, At: 35, Tenant: 7, Host: 8, Iter: 40, Aux: "global"},
	KindTenantDeparted:      {Kind: KindTenantDeparted, At: 36, Tenant: 7, Iter: 40, Dur: 120e9, Aux: "completed"},
	KindEstimateUsed:        {Kind: KindEstimateUsed, At: 37, Host: 0, Peer: 3, Node: 8, Value: 32768, Bytes: 28000, Dur: 12e9, Wait: 28e9, Startup: 4e8, Seq: 3, Name: "global", Aux: "fresh-cache"},
	KindRegimeDetected:      {Kind: KindRegimeDetected, At: 38, Host: 0, Peer: 3, Node: 8, Dur: 55e9, Value: 16384, Bytes: 32768, Seq: 4, Aux: "down"},
}

// TestEveryKindFullyWired is the exhaustiveness gate: each Kind (except the
// never-emitted zero value) must carry a real kebab-case name — not the
// "kind(N)" placeholder — and a sample event in kindSamples that survives a
// JSONL round trip byte-for-byte. Adding a Kind without wiring both fails
// here before it can ship half-done.
func TestEveryKindFullyWired(t *testing.T) {
	for k := KindNone + 1; k < kindCount; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has placeholder name %q; add it to kindNames", int(k), name)
			continue
		}
		if name != strings.ToLower(name) || strings.ContainsAny(name, " _") {
			t.Errorf("kind %v name %q is not kebab-case", int(k), name)
		}
		sample, ok := kindSamples[k]
		if !ok {
			t.Errorf("kind %v (%s) has no sample event in kindSamples; add a JSONL round-trip case", int(k), name)
			continue
		}
		if sample.Kind != k {
			t.Errorf("sample for %s carries kind %v", name, sample.Kind)
			continue
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []Event{sample}); err != nil {
			t.Errorf("%s: WriteJSONL: %v", name, err)
			continue
		}
		got, err := ReadJSONL(&buf)
		if err != nil {
			t.Errorf("%s: ReadJSONL: %v", name, err)
			continue
		}
		if len(got) != 1 || got[0] != sample {
			t.Errorf("%s: JSONL round trip mutated the event:\n  in:  %+v\n  out: %+v", name, sample, got)
		}
	}
	if len(kindSamples) != int(kindCount)-1 {
		t.Errorf("kindSamples has %d entries for %d emittable kinds; remove stale entries", len(kindSamples), int(kindCount)-1)
	}
}

func TestKindKernelPartition(t *testing.T) {
	kernel := map[Kind]bool{
		KindProcHold: true, KindProcKilled: true,
		KindMailboxSend: true, KindMailboxRecv: true,
		KindResourceWait: true, KindResourceGrant: true,
	}
	for k := KindNone; k < kindCount; k++ {
		if k.Kernel() != kernel[k] {
			t.Errorf("Kernel(%v) = %v, want %v", k, k.Kernel(), kernel[k])
		}
	}
}

func TestMultiFlattensAndDropsNils(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	if got := Multi((*Collector)(nil), (*Recorder)(nil), nil); got != nil {
		t.Errorf("Multi of nil pointers = %#v, want nil", got)
	}
	a, b, c := &Recorder{}, &Recorder{}, &Recorder{}
	if got := Multi(nil, a, (*Collector)(nil)); got != a {
		t.Error("Multi with one live sink should return it unwrapped")
	}
	m := Multi(Multi(a, b), nil, (*Recorder)(nil), c)
	inner, ok := m.(*multi)
	if !ok || len(inner.sinks) != 3 {
		t.Fatalf("nested Multi not flattened: %#v", m)
	}
	m.Emit(Event{Kind: KindTransferEnd})
	for i, r := range []*Recorder{a, b, c} {
		if r.Len() != 1 {
			t.Errorf("sink %d got %d events, want 1", i, r.Len())
		}
	}
}

func TestModelOnlyDropsKernelKinds(t *testing.T) {
	r := &Recorder{}
	s := ModelOnly(r)
	s.Emit(Event{Kind: KindProcHold})
	s.Emit(Event{Kind: KindMailboxSend})
	s.Emit(Event{Kind: KindTransferEnd})
	s.Emit(Event{Kind: KindDemandSent})
	if r.Len() != 2 {
		t.Fatalf("got %d events, want 2", r.Len())
	}
	for _, ev := range r.Events() {
		if ev.Kind.Kernel() {
			t.Errorf("kernel kind %v leaked through ModelOnly", ev.Kind)
		}
	}
	if ModelOnly(nil) != nil {
		t.Error("ModelOnly(nil) should be nil")
	}
}

func TestHashDistinguishesEveryField(t *testing.T) {
	base := Event{
		Kind: KindTransferEnd, At: 1, Host: 2, Peer: 3, Node: 4, Iter: 5,
		Prio: 1, Bytes: 6, Dur: 7, Wait: 10, Startup: 11, Value: 8.5, Seq: 9,
		Tenant: 12, Name: "a", Aux: "b",
	}
	h0 := Hash([]Event{base})
	if h0 != Hash([]Event{base}) {
		t.Fatal("hash is not deterministic")
	}
	mutations := []func(*Event){
		func(e *Event) { e.Kind = KindTransferStart },
		func(e *Event) { e.At++ },
		func(e *Event) { e.Host++ },
		func(e *Event) { e.Peer++ },
		func(e *Event) { e.Node++ },
		func(e *Event) { e.Iter++ },
		func(e *Event) { e.Prio++ },
		func(e *Event) { e.Bytes++ },
		func(e *Event) { e.Dur++ },
		func(e *Event) { e.Wait++ },
		func(e *Event) { e.Startup++ },
		func(e *Event) { e.Value++ },
		func(e *Event) { e.Seq++ },
		func(e *Event) { e.Tenant++ },
		func(e *Event) { e.Name = "z" },
		func(e *Event) { e.Aux = "z" },
	}
	for i, mut := range mutations {
		ev := base
		mut(&ev)
		if Hash([]Event{ev}) == h0 {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
	// The string framing must keep ("ab","") distinct from ("a","b").
	x := base
	x.Name, x.Aux = "ab", ""
	y := base
	y.Name, y.Aux = "a", "b"
	if Hash([]Event{x}) == Hash([]Event{y}) {
		t.Error("string fields are not framed: ab/ collides with a/b")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	if r.Len() != 0 || r.Hash() != Hash(nil) {
		t.Fatal("fresh recorder not empty")
	}
	r.Emit(Event{Kind: KindDemandSent, At: 10})
	r.Emit(Event{Kind: KindDataServed, At: 20})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Hash() != Hash(r.Events()) {
		t.Error("Recorder.Hash disagrees with Hash(Events())")
	}
}
