package placement

import (
	"wadc/internal/dataflow"
	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
)

// improvementEps guards against floating-point oscillation: a move must
// improve the critical path by more than this (seconds) to be taken.
const improvementEps = 1e-9

// maxOneShotRounds bounds the optimiser; with strict improvement it
// terminates naturally, this is a safety net only.
const maxOneShotRounds = 10000

// maxStackPath is the critical-path length the optimiser keeps without a
// heap allocation: a complete tree of up to 2^30 servers, a left-deep one of
// up to 31.
const maxStackPath = 32

// OneShotOptimizeAudited is the paper's §2.1 iterative step, usable from any
// starting placement (the global algorithm seeds it with the current
// placement instead of download-all):
//
//	repeat
//	  compute the critical path K of the current placement
//	  for each operator on K, consider all alternative locations;
//	  remember the cheapest resulting placement
//	until it is no cheaper than the current one
//
// ev must be an evaluator of initial's tree whose host range covers hosts
// and initial; the call resets it to bw, so bw is called at most once per
// ordered host pair per call, in the order the search first needs each
// edge, and is treated as a fixed snapshot for the whole search. The
// returned placement is a new value; the input is not modified.
//
// The decision audit trail records the starting critical path, every
// candidate evaluated (with its predicted cost), each adopted move (with its
// predicted gain) and the final predicted cost on the open decision record d
// (callers call Auditor.StartDecision first; this function closes the record
// with d.End). A zero d records nothing: the search itself is byte-identical
// either way.
//
// Each candidate is scored by moving the operator in place on the working
// placement and moving it back; only the winning move of a round is
// applied, and the round's critical path is read off the evaluator into one
// reused buffer.
func OneShotOptimizeAudited(ev *plan.Evaluator, initial *plan.Placement, hosts []netmodel.HostID, bw plan.BandwidthFn, d Decision) *plan.Placement {
	ev.Reset(bw)
	cur := initial.Clone()
	tree := cur.Tree()
	curCost := ev.Cost(cur)
	var buf [maxStackPath]plan.NodeID
	path := ev.CriticalPath(buf[:0])
	d.Path(curCost, path)
	candidates := 0
	for round := 0; round < maxOneShotRounds; round++ {
		bestCost := curCost
		bestOp := plan.NoNode
		var bestFrom, bestTo netmodel.HostID
		for _, op := range path {
			if tree.Node(op).Kind != plan.Operator {
				continue
			}
			from := cur.Loc(op)
			for _, h := range hosts {
				if h == from {
					continue
				}
				cur.SetLoc(op, h)
				c := ev.Cost(cur)
				cur.SetLoc(op, from)
				candidates++
				d.Candidate(op, from, h, round, c, false)
				if c < bestCost-improvementEps {
					bestCost = c
					bestOp, bestFrom, bestTo = op, from, h
				}
			}
		}
		if bestOp == plan.NoNode {
			break
		}
		d.Move(bestOp, bestFrom, bestTo, curCost-bestCost)
		cur.SetLoc(bestOp, bestTo)
		curCost = bestCost
		ev.Cost(cur)
		path = ev.CriticalPath(path[:0])
	}
	d.End(curCost, candidates)
	return cur
}

// DownloadAll is the baseline policy: all operators at the client, never
// relocated.
type DownloadAll struct{}

// Name implements Policy.
func (DownloadAll) Name() string { return "download-all" }

// InitialPlacement implements Policy.
func (DownloadAll) InitialPlacement(_ *sim.Proc, x *Instance) *plan.Placement {
	return x.DownloadAllPlacement()
}

// Attach implements Policy: the baseline has no runtime behaviour.
func (DownloadAll) Attach(*Instance, *dataflow.Engine) {}

// OneShot is the start-up-only policy (§2.1): optimise once from the
// download-all placement using the information available at the beginning of
// the computation, then never adapt.
type OneShot struct{}

// Name implements Policy.
func (OneShot) Name() string { return "one-shot" }

// InitialPlacement implements Policy: probes for unknown links are charged
// to p, so the optimisation delays the start of the computation — exactly
// the cost profile of a start-up-time planner. The pass is audited as one
// decision record (OneShot is a stateless value, so its DecisionStats live
// only in the event stream).
func (OneShot) InitialPlacement(p *sim.Proc, x *Instance) *plan.Placement {
	return initialOneShot(p, x, &Auditor{}, "one-shot")
}

// initialOneShot is the start-up placement of the one-shot, global and
// local algorithms: au, bound to the run's kernel under alg's name, audits
// one optimisation pass from the download-all placement over snapshot
// bandwidths, whose probes are charged to p.
func initialOneShot(p *sim.Proc, x *Instance, au *Auditor, alg string) *plan.Placement {
	au.Bind(p.Kernel(), alg)
	d := au.StartDecision(x.ClientHost, -1)
	bw := x.AuditedSnapshotBW(p, x.ClientHost, d)
	return OneShotOptimizeAudited(x.eval, x.DownloadAllPlacement(), x.Hosts, bw, d)
}

// Attach implements Policy: one-shot has no runtime behaviour.
func (OneShot) Attach(*Instance, *dataflow.Engine) {}
