package analysis

// Realized critical-path reconstruction: the realized-side twin of the
// decision audit. The dataflow layer emits causal edges — compose-gated
// (which child's arrival released each compose), source-read (the disk leaf
// of every chain), phase-split transfers (NIC queue | startup | payload) and
// per-serve idle-demand waits — and this pass walks them backward from each
// image-arrived event to reconstruct which link, queue, compose or buffer
// actually gated the iteration.
//
// The walk is exact by construction: a cursor starts at the arrival and only
// moves backward; every segment covers [max(from, windowStart), cursor], so
// the per-iteration segments always tile the client-observed latency window
// and the attribution components sum to the latency to the nanosecond —
// even on faulty logs where re-serves, rewinds and reinstantiations make
// individual edges unreliable (a mismatched edge stretches the neighbouring
// segment instead of breaking the sum).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"wadc/internal/telemetry"
)

// PathCategory classifies a span of the realized critical path.
type PathCategory uint8

// Realized latency attribution categories.
const (
	// CatQueue is wait in a queue: NIC queue for a link hop (Peer >= 0) or
	// CPU queue before a compose (Peer < 0).
	CatQueue PathCategory = iota
	// CatStartup is the fixed per-message start-up portion of a transfer.
	CatStartup
	// CatPayload is transfer payload time at the trace-integrated bandwidth.
	CatPayload
	// CatCompute is compose CPU time or a server's disk read.
	CatCompute
	// CatIdle is idle-demand time: output sat buffered waiting for its
	// consumer's demand (covers the demand cascade itself).
	CatIdle

	catCount // sentinel
)

var catNames = [catCount]string{"queue", "startup", "payload", "compute", "idle"}

// String implements fmt.Stringer.
func (c PathCategory) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", int(c))
}

// PathSegment is one contiguous span of a realized critical path.
type PathSegment struct {
	Cat PathCategory
	// From and To bound the span in simulated ns, clipped to the iteration
	// window.
	From, To int64
	// Host is the attributed host (the source host for link phases); Peer is
	// the destination host for link phases, -1 for host-local spans.
	Host, Peer int32
	// Node is the tree node the span belongs to (-1 when unattributable).
	Node int32
}

// Place renders the segment's location: "h0→h2" for link phases, "h1"
// otherwise.
func (s PathSegment) Place() string {
	if s.Peer >= 0 {
		return fmt.Sprintf("h%d→h%d", s.Host, s.Peer)
	}
	if s.Host < 0 {
		return "-"
	}
	return fmt.Sprintf("h%d", s.Host)
}

// IterationPath is one iteration's realized critical path: the chronological
// segments tiling the window between the previous arrival and this one, and
// the per-category attribution (which sums exactly to Latency).
type IterationPath struct {
	Iter    int32
	Arrival int64 // image-arrived time (ns)
	Latency int64 // Arrival - previous arrival (client-observed, ns)
	// ByCat is the total ns attributed to each category; the entries sum to
	// Latency exactly.
	ByCat [catCount]int64
	// Segments is the realized path, chronological.
	Segments []PathSegment
	// Nodes is the production chain the walk visited, client side first
	// (root operator down the gating children to a leaf).
	Nodes []int32
	// Hops counts network hops on the realized path.
	Hops int
}

// Bottleneck returns the iteration's largest single (category, place)
// contribution and its share of the latency.
func (p IterationPath) Bottleneck() (string, float64) {
	totals := make(map[string]int64)
	for _, s := range p.Segments {
		totals[s.Cat.String()+" "+s.Place()] += s.To - s.From
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestNs := "-", int64(0)
	for _, k := range keys {
		if totals[k] > bestNs {
			best, bestNs = k, totals[k]
		}
	}
	if p.Latency <= 0 {
		return best, 0
	}
	return best, float64(bestNs) / float64(p.Latency)
}

// critIndex holds the per-kind event indices the backward walk queries.
type critIndex struct {
	arrivals []telemetry.Event
	// serves/fires/gates/reads index dataflow events by {node, iter}, in log
	// (= time) order.
	serves, fires, gates, reads map[[2]int32][]telemetry.Event
	// xferByEnd and xferByStart index completed data-priority transfers by
	// end time and by queue-entry time (At - Dur - Wait).
	xferByEnd, xferByStart map[int64][]telemetry.Event
	roles                  map[int32]string
	root                   int32
}

func buildCritIndex(events []telemetry.Event) *critIndex {
	ix := &critIndex{
		serves: make(map[[2]int32][]telemetry.Event),
		fires:  make(map[[2]int32][]telemetry.Event),
		gates:  make(map[[2]int32][]telemetry.Event),
		reads:  make(map[[2]int32][]telemetry.Event),

		xferByEnd:   make(map[int64][]telemetry.Event),
		xferByStart: make(map[int64][]telemetry.Event),
		roles:       make(map[int32]string),
		root:        -1,
	}
	for _, ev := range events {
		key := [2]int32{ev.Node, ev.Iter}
		switch ev.Kind {
		case telemetry.KindImageArrived:
			ix.arrivals = append(ix.arrivals, ev)
		case telemetry.KindDataServed:
			ix.serves[key] = append(ix.serves[key], ev)
		case telemetry.KindOperatorFired:
			ix.fires[key] = append(ix.fires[key], ev)
		case telemetry.KindComposeGated:
			ix.gates[key] = append(ix.gates[key], ev)
		case telemetry.KindSourceRead:
			ix.reads[key] = append(ix.reads[key], ev)
		case telemetry.KindTransferEnd:
			if ev.Prio == 0 { // data priority: the hops data payloads take
				ix.xferByEnd[ev.At] = append(ix.xferByEnd[ev.At], ev)
				start := ev.At - ev.Dur - ev.Wait
				ix.xferByStart[start] = append(ix.xferByStart[start], ev)
			}
		case telemetry.KindOperatorPlaced:
			ix.roles[ev.Node] = ev.Aux
		case telemetry.KindDemandSent:
			// The first demand of a run is the client's, naming the root
			// operator (the anchor node of every backward walk).
			if ix.root < 0 {
				ix.root = ev.Node
			}
		}
	}
	// Fallback roles for logs predating operator-placed events.
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.KindOperatorFired:
			if _, ok := ix.roles[ev.Node]; !ok {
				ix.roles[ev.Node] = "operator"
			}
		case telemetry.KindSourceRead:
			if _, ok := ix.roles[ev.Node]; !ok {
				ix.roles[ev.Node] = "server"
			}
		}
	}
	return ix
}

// latest returns the last event of m[{node, iter}] at or before upTo.
func latest(m map[[2]int32][]telemetry.Event, node, iter int32, upTo int64) (telemetry.Event, bool) {
	list := m[[2]int32{node, iter}]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].At <= upTo {
			return list[i], true
		}
	}
	//lint:allow-unguarded zero value of an already-recorded event, nothing is emitted
	return telemetry.Event{}, false
}

// xferEndingAt finds a data transfer that delivered to dst at exactly t,
// preferring a matching payload size when several end together.
func (ix *critIndex) xferEndingAt(t int64, dst int32, bytes int64) (telemetry.Event, bool) {
	var found telemetry.Event
	ok := false
	for _, ev := range ix.xferByEnd[t] {
		if ev.Peer != dst {
			continue
		}
		if ev.Bytes == bytes {
			return ev, true
		}
		found, ok = ev, true
	}
	return found, ok
}

// xferStartingAt finds a data transfer that entered src's NIC queue at
// exactly t (the dispatch a blocking sendData performed).
func (ix *critIndex) xferStartingAt(t int64, src int32, bytes int64) (telemetry.Event, bool) {
	var found telemetry.Event
	ok := false
	for _, ev := range ix.xferByStart[t] {
		if ev.Host != src {
			continue
		}
		if ev.Bytes == bytes {
			return ev, true
		}
		found, ok = ev, true
	}
	return found, ok
}

// maxWalkDepth bounds the backward walk (tree depth plus prefetch chains can
// never legitimately exceed this; a malformed log could otherwise loop).
const maxWalkDepth = 100000

// walker reconstructs one iteration's realized path. The cursor starts at
// the arrival (w1) and only ever moves backward; emit covers [from, cursor]
// so the collected segments tile [final cursor, w1] with no gaps or
// overlaps, whatever the underlying events claim.
type walker struct {
	ix       *critIndex
	w0, w1   int64
	cursor   int64
	segments []PathSegment
	nodes    []int32
	hops     int
	depth    int
}

func (w *walker) done() bool { return w.cursor <= w.w0 }

// emit records the span [max(from, w0), cursor] and moves the cursor to its
// start. Out-of-order or empty spans are dropped; a span reaching past the
// cursor is truncated — this is what makes the attribution exact-sum.
func (w *walker) emit(from int64, cat PathCategory, host, peer, node int32) {
	if w.done() {
		return
	}
	a := from
	if a < w.w0 {
		a = w.w0
	}
	if a >= w.cursor {
		return
	}
	w.segments = append(w.segments, PathSegment{
		Cat: cat, From: a, To: w.cursor, Host: host, Peer: peer, Node: node,
	})
	w.cursor = a
}

// netChainBack decomposes the network span [floor, upTo] delivering to dst
// into per-hop phase segments, following forwarder bounces backward hop by
// hop. floor is the producer's serve time (the dispatch entering the first
// NIC queue).
func (w *walker) netChainBack(upTo int64, dst int32, floor int64, bytes int64, node int32) {
	cur, curDst := upTo, dst
	for cur > floor && !w.done() {
		t, ok := w.ix.xferEndingAt(cur, curDst, bytes)
		if !ok || t.At-t.Dur-t.Wait >= cur {
			// Local delivery (co-located consumer: no transfer events, zero
			// cost), an unmatchable recovery hop, or a hop that takes no
			// time — only a malformed log has one, and following it would
			// never move the walk back: close the remaining gap.
			w.emit(floor, CatPayload, curDst, -1, node)
			return
		}
		w.hops++
		w.emit(t.At-(t.Dur-t.Startup), CatPayload, t.Host, t.Peer, node)
		w.emit(t.At-t.Dur, CatStartup, t.Host, t.Peer, node)
		w.emit(t.At-t.Dur-t.Wait, CatQueue, t.Host, t.Peer, node)
		cur, curDst = t.At-t.Dur-t.Wait, t.Host
	}
}

// walkServe walks backward through node's serve for iter that was consumed
// at upTo on dst: the transfer chain, the buffered idle-demand wait, then the
// production that made the output ready.
func (w *walker) walkServe(node, iter int32, upTo int64, dst int32, bytes int64) {
	if w.done() {
		return
	}
	w.depth++
	if w.depth > maxWalkDepth {
		w.emit(w.w0, CatIdle, dst, -1, node)
		return
	}
	sv, ok := latest(w.ix.serves, node, iter, upTo)
	if !ok {
		w.emit(w.w0, CatIdle, dst, -1, node)
		return
	}
	w.nodes = append(w.nodes, node)
	w.netChainBack(upTo, dst, sv.At, bytes, node)
	ready := sv.At - sv.Wait
	w.emit(ready, CatIdle, sv.Host, -1, node) // output buffered, waiting for demand
	if w.done() {
		return
	}
	w.walkProduction(node, iter, ready, sv.Host)
}

// walkProduction walks backward through what made node's iter output ready
// at the given time: an operator's compose (CPU wait, then the gating
// child's serve), or a server's disk read (then the server's own previous
// dispatch — the prefetch pipeline).
func (w *walker) walkProduction(node, iter int32, ready int64, host int32) {
	w.depth++
	if w.depth > maxWalkDepth {
		w.emit(w.w0, CatIdle, host, -1, node)
		return
	}
	switch w.ix.roles[node] {
	case "operator":
		f, ok := latest(w.ix.fires, node, iter, ready)
		if !ok {
			w.emit(w.w0, CatIdle, host, -1, node)
			return
		}
		w.emit(f.At-f.Dur, CatCompute, f.Host, -1, node)
		w.emit(f.At-f.Dur-f.Wait, CatQueue, f.Host, -1, node) // CPU queue
		if w.done() {
			return
		}
		g, ok := latest(w.ix.gates, node, iter, f.At-f.Dur-f.Wait)
		if !ok {
			w.emit(w.w0, CatIdle, f.Host, -1, node)
			return
		}
		// Recurse into the gating input: the child whose arrival released
		// this compose is, by definition, the realized critical child.
		w.walkServe(g.Peer, iter, g.At, g.Host, g.Bytes)
	case "server":
		r, ok := latest(w.ix.reads, node, iter, ready)
		if !ok {
			w.emit(w.w0, CatIdle, host, -1, node)
			return
		}
		w.emit(r.At-r.Dur, CatCompute, r.Host, -1, node) // disk read
		if w.done() || iter == 0 {
			w.emit(w.w0, CatIdle, r.Host, -1, node) // demand cascade of iter 0
			return
		}
		// The prefetch read started the moment the previous iteration's
		// dispatch returned: chain into the server's own pipeline.
		sv2, ok := latest(w.ix.serves, node, iter-1, r.At-r.Dur)
		if !ok {
			w.emit(w.w0, CatIdle, r.Host, -1, node)
			return
		}
		if t, ok := w.ix.xferStartingAt(sv2.At, sv2.Host, sv2.Bytes); ok {
			w.emit(t.At, CatIdle, r.Host, -1, node) // dispatch→read gap (recovery only)
			w.hops++
			w.emit(t.At-(t.Dur-t.Startup), CatPayload, t.Host, t.Peer, node)
			w.emit(t.At-t.Dur, CatStartup, t.Host, t.Peer, node)
			w.emit(t.At-t.Dur-t.Wait, CatQueue, t.Host, t.Peer, node)
		}
		w.emit(sv2.At-sv2.Wait, CatIdle, sv2.Host, -1, node)
		if w.done() {
			return
		}
		w.walkProduction(node, iter-1, sv2.At-sv2.Wait, sv2.Host)
	default:
		w.emit(w.w0, CatIdle, host, -1, node)
	}
}

// ExtractCritPaths reconstructs the realized critical path of every
// completed iteration in the log. Each returned path's ByCat components sum
// exactly to its client-observed Latency.
func ExtractCritPaths(events []telemetry.Event) []IterationPath {
	ix := buildCritIndex(events)
	out := make([]IterationPath, 0, len(ix.arrivals))
	prev := int64(0)
	for _, a := range ix.arrivals {
		w := &walker{ix: ix, w0: prev, w1: a.At, cursor: a.At}
		if ix.root >= 0 {
			w.walkServe(ix.root, a.Iter, a.At, a.Host, a.Bytes)
		}
		// Whatever the walk could not attribute is pre-chain demand-cascade
		// time; closing it here guarantees the exact-sum invariant.
		w.emit(prev, CatIdle, a.Host, -1, -1)
		p := IterationPath{
			Iter: a.Iter, Arrival: a.At, Latency: a.At - prev,
			Segments: w.segments, Nodes: w.nodes, Hops: w.hops,
		}
		// The walk appends segments backward; flip to chronological.
		for i, j := 0, len(p.Segments)-1; i < j; i, j = i+1, j-1 {
			p.Segments[i], p.Segments[j] = p.Segments[j], p.Segments[i]
		}
		for _, s := range p.Segments {
			p.ByCat[s.Cat] += s.To - s.From
		}
		out = append(out, p)
		prev = a.At
	}
	return out
}

// PlaceAttribution aggregates realized critical-path time for one
// (place, category) pair across iterations.
type PlaceAttribution struct {
	Place string
	Cat   PathCategory
	Total int64 // ns on realized critical paths
	Iters int   // iterations where the pair appeared
}

// SummarizeAttribution aggregates per-link/per-host attribution across all
// iterations, sorted by total descending (ties by place then category).
func SummarizeAttribution(paths []IterationPath) []PlaceAttribution {
	type key struct {
		place string
		cat   PathCategory
	}
	totals := make(map[key]*PlaceAttribution)
	for _, p := range paths {
		seen := make(map[key]bool)
		for _, s := range p.Segments {
			k := key{s.Place(), s.Cat}
			pa := totals[k]
			if pa == nil {
				pa = &PlaceAttribution{Place: k.place, Cat: k.cat}
				totals[k] = pa
			}
			pa.Total += s.To - s.From
			if !seen[k] {
				seen[k] = true
				pa.Iters++
			}
		}
	}
	out := make([]PlaceAttribution, 0, len(totals))
	for _, pa := range totals {
		out = append(out, *pa)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Place != out[j].Place {
			return out[i].Place < out[j].Place
		}
		return out[i].Cat < out[j].Cat
	})
	return out
}

// PathComparison joins one decision's prediction with the realized critical
// paths of the iterations that followed it.
type PathComparison struct {
	Outcome
	// WindowIters are the iterations scored (the next attributionWindow
	// arrivals after the decision ended).
	WindowIters []int32
	// RealizedMean is the mean realized latency over the window (seconds).
	RealizedMean float64
	// Bottleneck is the dominant (category, place) over the window and
	// BottleneckShare its fraction of the window's total latency.
	Bottleneck      string
	BottleneckShare float64
	// RealizedNodes is the modal realized production chain over the window.
	RealizedNodes []int32
	// OnPath reports whether every non-client node of the predicted critical
	// path lies on the realized one — i.e. the optimiser bet on the chain
	// that actually gated the iterations.
	OnPath bool
}

// ComparePredictions scores each decision's predicted critical path against
// the realized paths of the attribution window that followed it.
func ComparePredictions(outcomes []Outcome, paths []IterationPath, events []telemetry.Event) []PathComparison {
	roles := make(map[int32]string)
	for _, ev := range events {
		if ev.Kind == telemetry.KindOperatorPlaced {
			roles[ev.Node] = ev.Aux
		}
	}
	out := make([]PathComparison, 0, len(outcomes))
	for _, o := range outcomes {
		c := PathComparison{Outcome: o}
		var window []IterationPath
		for _, p := range paths {
			if p.Arrival > o.End {
				window = append(window, p)
				if len(window) == attributionWindow {
					break
				}
			}
		}
		totals := make(map[string]int64)
		var totalNs int64
		chains := make(map[string]int)
		chainNodes := make(map[string][]int32)
		for _, p := range window {
			c.WindowIters = append(c.WindowIters, p.Iter)
			totalNs += p.Latency
			for _, s := range p.Segments {
				totals[s.Cat.String()+" "+s.Place()] += s.To - s.From
			}
			ck := nodeChainString(p.Nodes)
			chains[ck]++
			chainNodes[ck] = p.Nodes
		}
		if len(window) > 0 {
			c.RealizedMean = float64(totalNs) / float64(len(window)) / 1e9
			keys := make([]string, 0, len(totals))
			for k := range totals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			best, bestNs := "-", int64(0)
			for _, k := range keys {
				if totals[k] > bestNs {
					best, bestNs = k, totals[k]
				}
			}
			c.Bottleneck = best
			if totalNs > 0 {
				c.BottleneckShare = float64(bestNs) / float64(totalNs)
			}
			cks := make([]string, 0, len(chains))
			for k := range chains {
				cks = append(cks, k)
			}
			sort.Strings(cks)
			bestCk, bestCnt := "", 0
			for _, k := range cks {
				if chains[k] > bestCnt {
					bestCk, bestCnt = k, chains[k]
				}
			}
			c.RealizedNodes = chainNodes[bestCk]
			c.OnPath = predictedOnRealized(o.Path, c.RealizedNodes, roles)
		}
		out = append(out, c)
	}
	return out
}

// predictedOnRealized reports whether every non-client node of the predicted
// path appears on the realized chain.
func predictedOnRealized(predicted, realized []int32, roles map[int32]string) bool {
	if len(predicted) == 0 || len(realized) == 0 {
		return false
	}
	on := make(map[int32]bool, len(realized))
	for _, n := range realized {
		on[n] = true
	}
	for _, n := range predicted {
		if roles[n] == "client" {
			continue
		}
		if !on[n] {
			return false
		}
	}
	return true
}

func nodeChainString(nodes []int32) string {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, "→")
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// FormatCritPathSummary renders the run-level attribution: per-category
// totals and the top per-link/per-host contributors (the `simscope critpath`
// header; pinned by a golden test).
func FormatCritPathSummary(paths []IterationPath) string {
	var sb strings.Builder
	var total int64
	var byCat [catCount]int64
	for _, p := range paths {
		total += p.Latency
		for c := PathCategory(0); c < catCount; c++ {
			byCat[c] += p.ByCat[c]
		}
	}
	fmt.Fprintf(&sb, "realized critical-path attribution (%d iterations, %.1fs total):\n", len(paths), secs(total))
	sb.WriteString("  category  total(s)  share\n")
	for c := PathCategory(0); c < catCount; c++ {
		share := 0.0
		if total > 0 {
			share = float64(byCat[c]) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-8s  %8.1f  %4.1f%%\n", c, secs(byCat[c]), share*100)
	}
	places := SummarizeAttribution(paths)
	if len(places) > 12 {
		places = places[:12]
	}
	sb.WriteString("top contributors:\n")
	sb.WriteString("  place     category  total(s)  share  iters\n")
	for _, pa := range places {
		share := 0.0
		if total > 0 {
			share = float64(pa.Total) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-8s  %-8s  %8.1f  %4.1f%%  %5d\n",
			pa.Place, pa.Cat, secs(pa.Total), share*100, pa.Iters)
	}
	return sb.String()
}

// FormatCritPathTable renders one line per iteration (the `simscope critpath
// -v` output): the phase decomposition, hop count and dominant contributor.
func FormatCritPathTable(paths []IterationPath) string {
	var sb strings.Builder
	sb.WriteString("  iter  t(s)      latency(s)  queue(s)  start(s)  payld(s)  compute(s)  idle(s)  hops  bottleneck\n")
	for _, p := range paths {
		bn, share := p.Bottleneck()
		fmt.Fprintf(&sb, "  %4d  %-8.1f  %10.3f  %8.3f  %8.3f  %8.3f  %10.3f  %7.3f  %4d  %s (%.0f%%)\n",
			p.Iter, secs(p.Arrival), secs(p.Latency),
			secs(p.ByCat[CatQueue]), secs(p.ByCat[CatStartup]), secs(p.ByCat[CatPayload]),
			secs(p.ByCat[CatCompute]), secs(p.ByCat[CatIdle]), p.Hops, bn, share*100)
	}
	return sb.String()
}

// FormatPathComparisons renders the predicted-vs-realized table: for each
// decision, the cost the optimiser predicted, the latency the next window of
// iterations realized, the realized bottleneck, and whether the predicted
// critical path was the chain that actually gated.
func FormatPathComparisons(cmps []PathComparison) string {
	var sb strings.Builder
	sb.WriteString("predicted vs realized critical paths (window = next 4 arrivals):\n")
	sb.WriteString("  seq  alg       predicted(s)  realized(s)  bottleneck               predicted path   verdict\n")
	for _, c := range cmps {
		if len(c.WindowIters) == 0 {
			fmt.Fprintf(&sb, "  %3d  %-8s  %12.3f  %11s  %-23s  %-15s  -\n",
				c.Seq, c.Algorithm, c.FinalCost, "-", "-", nodeChainString(c.Path))
			continue
		}
		verdict := "off-path"
		if c.OnPath {
			verdict = "on-path"
		}
		bn := fmt.Sprintf("%s (%.0f%%)", c.Bottleneck, c.BottleneckShare*100)
		fmt.Fprintf(&sb, "  %3d  %-8s  %12.3f  %11.3f  %-23s  %-15s  %s (realized %s)\n",
			c.Seq, c.Algorithm, c.FinalCost, c.RealizedMean, bn,
			nodeChainString(c.Path), verdict, nodeChainString(c.RealizedNodes))
	}
	return sb.String()
}

// WriteCritPathCSV exports one row per iteration: the phase attribution in
// seconds, hop count, dominant contributor and realized chain. Spreadsheet-
// ready companion to the fixed-width report.
func WriteCritPathCSV(w io.Writer, paths []IterationPath) error {
	if _, err := fmt.Fprintln(w, "iter,arrival_s,latency_s,queue_s,startup_s,payload_s,compute_s,idle_s,hops,bottleneck,path"); err != nil {
		return err
	}
	for _, p := range paths {
		bn, _ := p.Bottleneck()
		_, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%s,%s,%s,%d,%s,%s\n",
			p.Iter, csvFloat(secs(p.Arrival)), csvFloat(secs(p.Latency)),
			csvFloat(secs(p.ByCat[CatQueue])), csvFloat(secs(p.ByCat[CatStartup])),
			csvFloat(secs(p.ByCat[CatPayload])), csvFloat(secs(p.ByCat[CatCompute])),
			csvFloat(secs(p.ByCat[CatIdle])), p.Hops, bn, nodeChainString(p.Nodes))
		if err != nil {
			return err
		}
	}
	return nil
}

func csvFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
