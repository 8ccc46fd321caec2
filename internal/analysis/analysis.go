// Package analysis reproduces the paper's §5 discussion methodology: "we
// studied the relocation traces we obtained from the simulations". It
// reconstructs the placement a run held at every instant from its move log,
// scores it against the placement an oracle optimiser would pick with
// ground-truth bandwidth, and summarises how closely — and how quickly — an
// algorithm tracked the moving optimum. This quantifies the paper's two
// explanations for the local algorithm's gap: greedy local moves that do not
// reduce the overall critical path, and slow convergence ("by the time it is
// able to achieve the desirable state, the network changes again").
package analysis

import (
	"sort"

	"wadc/internal/dataflow"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// Timeline reconstructs the placement held at any instant of a finished run.
type Timeline struct {
	initial *plan.Placement
	moves   []dataflow.MoveRecord
}

// NewTimeline builds a timeline from a run's initial placement and move log
// (which dataflow records in move-time order).
func NewTimeline(initial *plan.Placement, moves []dataflow.MoveRecord) *Timeline {
	ms := make([]dataflow.MoveRecord, len(moves))
	copy(ms, moves)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].At < ms[j].At })
	return &Timeline{initial: initial, moves: ms}
}

// At returns the placement in force at time t.
func (tl *Timeline) At(t sim.Time) *plan.Placement {
	p := tl.initial.Clone()
	for _, mv := range tl.moves {
		if mv.At > t {
			break
		}
		p.SetLoc(mv.Op, mv.To)
	}
	return p
}

// OracleBandwidth adapts per-link traces into the time-indexed BandwidthFn
// family the scorer needs.
type OracleBandwidth func(t sim.Time) plan.BandwidthFn

// OracleFromLinks builds an OracleBandwidth from a link-trace lookup.
func OracleFromLinks(links func(a, b netmodel.HostID) *trace.Trace) OracleBandwidth {
	return func(t sim.Time) plan.BandwidthFn {
		return func(a, b netmodel.HostID) trace.Bandwidth {
			return links(a, b).At(t)
		}
	}
}

// Report summarises a run's placement quality over time.
type Report struct {
	// Samples is the number of time points scored.
	Samples int
	// MeanGap and P90Gap summarise cost(held placement) / cost(oracle-best
	// placement) at each sample; 1.0 means the run held an (approximately)
	// optimal placement.
	MeanGap float64
	P90Gap  float64
	// WithinTenPct is the fraction of time the held placement was within
	// 10 % of the oracle optimum.
	WithinTenPct float64
	// MeanMoveInterval is the average time between relocations (0 if fewer
	// than two moves).
	MeanMoveInterval sim.Time
}

// Convergence scores a run: every step of simulated time in [0, horizon],
// the held placement's cost under ground-truth bandwidth is compared with
// the cost of the placement the one-shot optimiser finds with the same
// ground truth (the oracle's moving target).
func Convergence(tl *Timeline, oracle OracleBandwidth, model plan.CostModel,
	hosts []netmodel.HostID, horizon, step sim.Time) Report {
	if step <= 0 {
		panic("analysis: non-positive sampling step")
	}
	var gaps []float64
	for t := sim.Time(0); t <= horizon; t += step {
		bw := oracle(t)
		held := tl.At(t)
		ev := model.NewEvaluator(held, hosts, bw)
		heldCost := ev.Cost(held)
		best := placement.OneShotOptimizeAudited(ev, held, hosts, bw, placement.Decision{})
		bestCost := ev.Cost(best)
		if bestCost <= 0 {
			continue
		}
		gaps = append(gaps, heldCost/bestCost)
	}
	rep := Report{Samples: len(gaps)}
	if len(gaps) == 0 {
		return rep
	}
	var sum float64
	within := 0
	for _, g := range gaps {
		sum += g
		if g <= 1.10 {
			within++
		}
	}
	rep.MeanGap = sum / float64(len(gaps))
	sort.Float64s(gaps)
	rep.P90Gap = gaps[int(0.9*float64(len(gaps)-1))]
	rep.WithinTenPct = float64(within) / float64(len(gaps))
	if n := len(tl.moves); n >= 2 {
		span := tl.moves[n-1].At - tl.moves[0].At
		rep.MeanMoveInterval = span / sim.Time(n-1)
	}
	return rep
}
