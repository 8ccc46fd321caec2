package placement

import (
	"math/rand"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
)

// Local is the fully distributed on-line policy (§2.3). Each operator, from
// local information only:
//
//  1. decides whether it is on the critical path — it was marked the "later"
//     producer by its consumer more than half the times it sent data during
//     its epoch, and its consumer is itself on the critical path (the root
//     operator is on the critical path by definition);
//  2. if so, tries to shorten the *local* critical path around it — the
//     longest path from either producer to its consumer — by considering its
//     producers' hosts, its consumer's host and its current host (plus up to
//     Extra random additional hosts) as candidate sites.
//
// Epochs are staggered by tree level (level ℓ acts in epochs where
// epoch ≡ ℓ mod depth) so decisions sweep up the tree as a wavefront,
// fulfilling the coordination requirement without a central coordinator.
// Decision-making runs inside the operator's own process in its relocation
// window, so monitoring probes are interleaved with the computation — the
// paper's stated limitation of the local algorithm.
type Local struct {
	// Period is how often each operator reconsiders its placement; the epoch
	// length is Period / depth so one full wavefront completes per Period.
	Period time.Duration
	// Extra is the number of additional randomly chosen candidate hosts
	// (the Figure 7 experiment varies this from 0 to 6).
	Extra int
	// Seed drives the random extra-candidate selection.
	Seed int64
	// Unstagger disables the per-level epoch staggering (ablation of the
	// paper's coordination mechanism): every operator acts at every epoch
	// boundary, so relocation decisions at adjacent levels can interleave
	// arbitrarily instead of sweeping up the tree as a wavefront.
	Unstagger bool

	// per-run state
	lastActed map[plan.NodeID]int
	rng       *rand.Rand

	// stats
	decisions int
	au        Auditor
}

// DecisionStats implements DecisionAudited.
func (l *Local) DecisionStats() DecisionStats { return l.au.Stats() }

// Name implements Policy.
func (l *Local) Name() string { return "local" }

// Decisions returns how many epoch-end evaluations ran.
func (l *Local) Decisions() int { return l.decisions }

// InitialPlacement implements Policy: "The local algorithm uses the one-shot
// algorithm to compute a good initial placement."
func (l *Local) InitialPlacement(p *sim.Proc, x *Instance) *plan.Placement {
	return initialOneShot(p, x, &l.au, "local")
}

// Attach implements Policy: install the relocation-window hook.
func (l *Local) Attach(x *Instance, e *dataflow.Engine) {
	period := l.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	depth := x.Tree.Depth()
	epochLen := period / time.Duration(depth)
	l.lastActed = make(map[plan.NodeID]int)
	l.rng = rngFor(l.Seed, 7919)
	root := x.Tree.Root()
	e.SetCritical(root, true) // grounded by definition

	if l.Unstagger {
		epochLen = period
	}
	e.SetWindowHook(func(p *sim.Proc, op plan.NodeID, iter int) (netmodel.HostID, bool) {
		// Most recent *ended* epoch assigned to this operator's level.
		ended := int(p.Now().Duration()/epochLen) - 1
		if ended < 0 {
			return 0, false
		}
		mine := ended
		if !l.Unstagger {
			level := x.Tree.Node(op).Level
			mine = ended - ((ended-level)%depth+depth)%depth
		}
		if mine < 0 {
			return 0, false
		}
		if last, ok := l.lastActed[op]; ok && mine <= last {
			return 0, false
		}
		l.lastActed[op] = mine
		return l.actAtEpochEnd(p, x, e, op, iter)
	})
}

// actAtEpochEnd is steps (2)-(3) of §2.3 plus the local repositioning.
func (l *Local) actAtEpochEnd(p *sim.Proc, x *Instance, e *dataflow.Engine, op plan.NodeID, iter int) (netmodel.HostID, bool) {
	l.decisions++
	marks, sends, consumerCritical := e.Counters(op)
	e.ResetCounters(op)

	critical := consumerCritical && sends > 0 && 2*marks > sends
	if op == x.Tree.Root() {
		critical = true // the root operator is critical by definition
	}
	e.SetCritical(op, critical)
	if !critical {
		return 0, false
	}

	// Candidate sites: producers' hosts, consumer's host, current host —
	// plus Extra random additional hosts.
	node := x.Tree.Node(op)
	cur := e.CurrentHost(op)
	prodA := e.NeighborHost(op, node.Children[0])
	prodB := e.NeighborHost(op, node.Children[1])
	cons := e.NeighborHost(op, node.Parent)
	candidates := dedupeHosts([]netmodel.HostID{cur, prodA, prodB, cons})
	base := len(candidates) // candidates beyond this index are random extras
	candidates = l.addRandomExtras(candidates, x.Hosts)

	// Minimise the local critical path: the longest producer→op→consumer
	// chain, evaluated with the operator's own (local) bandwidth view.
	d := l.au.StartDecision(cur, iter)
	bw := x.AuditedSnapshotBW(p, cur, d)
	curCost := localPathCost(x.Model, prodA, prodB, cur, cons, bw)
	best, bestCost := cur, curCost
	d.Path(curCost, []plan.NodeID{node.Children[0], node.Children[1], op, node.Parent})
	evaluated := 0
	for i, cand := range candidates {
		if cand == cur {
			continue
		}
		c := localPathCost(x.Model, prodA, prodB, cand, cons, bw)
		evaluated++
		d.Candidate(op, cur, cand, 0, c, i >= base)
		if c < bestCost-improvementEps {
			best, bestCost = cand, c
		}
	}
	if best == cur {
		d.End(bestCost, evaluated)
		return 0, false
	}
	d.Move(op, cur, best, curCost-bestCost)
	d.End(bestCost, evaluated)
	if k := e.Kernel(); k.Telemetry() != nil {
		k.Emit(telemetry.Event{
			Kind: telemetry.KindRelocationProposed,
			Node: int32(op), Host: int32(cur), Peer: int32(best),
			Aux: "local",
		})
	}
	return best, true
}

// localPathCost is the length of the local critical path for the operator
// placed at site — the longest producer→site→consumer chain — charged
// against the site's single NIC: both inputs (and the output) serialise
// through it, so remote input edges add up rather than overlapping. The
// operator knows all of these edge costs from local information alone.
func localPathCost(m plan.CostModel, prodA, prodB, site, cons netmodel.HostID, bw plan.BandwidthFn) float64 {
	in := m.EdgeCost(prodA, site, bw) + m.EdgeCost(prodB, site, bw)
	return in + m.ComputeDur.Seconds() + m.EdgeCost(site, cons, bw)
}

func dedupeHosts(hs []netmodel.HostID) []netmodel.HostID {
	seen := make(map[netmodel.HostID]bool, len(hs))
	out := hs[:0]
	for _, h := range hs {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// addRandomExtras appends up to l.Extra hosts "chosen randomly (uniform
// distribution) from the remaining hosts" (§5, Figure 7).
func (l *Local) addRandomExtras(candidates, all []netmodel.HostID) []netmodel.HostID {
	if l.Extra <= 0 {
		return candidates
	}
	in := make(map[netmodel.HostID]bool, len(candidates))
	for _, h := range candidates {
		in[h] = true
	}
	var remaining []netmodel.HostID
	for _, h := range all {
		if !in[h] {
			remaining = append(remaining, h)
		}
	}
	l.rng.Shuffle(len(remaining), func(i, j int) {
		remaining[i], remaining[j] = remaining[j], remaining[i]
	})
	k := l.Extra
	if k > len(remaining) {
		k = len(remaining)
	}
	return append(candidates, remaining[:k]...)
}
