// Package faults is the deterministic fault-injection subsystem: it turns a
// seed and a handful of rates into an explicit, validated fault plan — host
// crash/recover windows, message drop and duplication probabilities, and
// mid-transfer link blackouts — and provides the runtime
// injector that imposes the plan on the simulated network.
//
// The paper's algorithms adapt to bandwidth *variation*; this package adds
// the next stressor a production wide-area combiner must survive: partial
// *failure*. Every fault event is drawn from a seeded generator and executed
// by the simulation kernel, never from the wall clock, so a faulty run
// replays bit-for-bit from its seed — crashes included.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
)

// Defaults for plan generation.
const (
	// DefaultMeanDowntime is the mean length of a host crash window.
	DefaultMeanDowntime = 2 * time.Minute
	// DefaultOutageDuration is the length of a link blackout window.
	DefaultOutageDuration = 30 * time.Second
	// DefaultHorizon bounds the window within which crashes and link
	// outages are drawn.
	DefaultHorizon = time.Hour
)

// Config is the user-facing fault specification carried on
// core.RunConfig.Faults. The zero value disables fault injection entirely:
// no hooks are installed and the run is byte-identical to one without this
// package.
type Config struct {
	// Seed drives plan generation and the per-message drop/duplication
	// draws. Zero derives a seed from the run seed, so faulty runs stay
	// deterministic without extra configuration.
	Seed int64
	// Plan, when non-nil, is used verbatim and generation is skipped
	// (chaos tests pin exact crash windows this way).
	Plan *Plan
	// Crashes is the number of host crash+recover windows to draw. The
	// client host is never crashed: it is the coordinator and result sink.
	Crashes int
	// MeanDowntime is the mean crash window length (DefaultMeanDowntime if
	// zero). Actual downtimes are drawn uniformly in [0.5, 1.5) of the mean.
	MeanDowntime time.Duration
	// DropProb is the per-message probability that a completed transfer is
	// lost before delivery; DupProb the probability it is delivered twice.
	// Both apply to every link.
	DropProb float64
	// DupProb is the per-message duplication probability.
	DupProb float64
	// LinkOutages is the number of mid-transfer link blackout windows to
	// draw across random links.
	LinkOutages int
	// OutageDuration is the length of each link outage
	// (DefaultOutageDuration if zero).
	OutageDuration time.Duration
	// Horizon bounds the interval [0, Horizon) in which crash and outage
	// windows are drawn (DefaultHorizon if zero).
	Horizon time.Duration
}

// Enabled reports whether the configuration asks for any fault injection.
func (c Config) Enabled() bool {
	return c.Plan != nil || c.Crashes > 0 || c.DropProb > 0 || c.DupProb > 0 || c.LinkOutages > 0
}

func (c Config) withDefaults() Config {
	if c.MeanDowntime <= 0 {
		c.MeanDowntime = DefaultMeanDowntime
	}
	if c.OutageDuration <= 0 {
		c.OutageDuration = DefaultOutageDuration
	}
	if c.Horizon <= 0 {
		c.Horizon = DefaultHorizon
	}
	return c
}

// CrashWindow takes a host down at At and brings it back at RecoverAt. While
// down, the host's processes are killed (their volatile state is lost), its
// mailboxes are purged, and messages completing delivery to it are lost. A
// recovered host is a fresh machine: data sources restart from disk;
// relocated operators do not come back — their consumers re-instantiate
// them.
type CrashWindow struct {
	Host      netmodel.HostID
	At        sim.Time
	RecoverAt sim.Time
}

// LinkOutage makes the undirected link A<->B unusable during [Start, End):
// any transfer in flight when the outage begins — or started during it — is
// aborted and lost mid-flight.
type LinkOutage struct {
	A, B  netmodel.HostID
	Start sim.Time
	End   sim.Time
}

// Plan is an explicit, fully deterministic fault schedule.
type Plan struct {
	Crashes []CrashWindow
	// DropProb is the probability that a completed remote transfer is lost
	// before delivery, DupProb the probability that it is delivered twice;
	// both apply to every link.
	DropProb, DupProb float64
	Outages           []LinkOutage
}

// Validate checks the plan's structural invariants: probabilities in [0, 1],
// recover/end at or after crash/start, crash windows per host
// non-overlapping, and — when protected is a valid host — no crash of the
// protected (client) host.
func (pl *Plan) Validate(numHosts int, protected netmodel.HostID) error {
	perHost := make(map[netmodel.HostID][]CrashWindow)
	for _, w := range pl.Crashes {
		if int(w.Host) < 0 || int(w.Host) >= numHosts {
			return fmt.Errorf("faults: crash of unknown host %d", w.Host)
		}
		if w.Host == protected {
			return fmt.Errorf("faults: crash window for protected host %d", w.Host)
		}
		if w.RecoverAt < w.At {
			return fmt.Errorf("faults: host %d recovers at %v before crashing at %v", w.Host, w.RecoverAt, w.At)
		}
		perHost[w.Host] = append(perHost[w.Host], w)
	}
	for h, ws := range perHost {
		sort.Slice(ws, func(i, j int) bool { return ws[i].At < ws[j].At })
		for i := 1; i < len(ws); i++ {
			if ws[i].At <= ws[i-1].RecoverAt {
				return fmt.Errorf("faults: host %d crash windows overlap: [%v,%v] and [%v,%v]",
					h, ws[i-1].At, ws[i-1].RecoverAt, ws[i].At, ws[i].RecoverAt)
			}
		}
	}
	if pl.DropProb < 0 || pl.DupProb < 0 || pl.DropProb+pl.DupProb > 1 {
		return fmt.Errorf("faults: invalid probabilities drop=%v dup=%v", pl.DropProb, pl.DupProb)
	}
	for _, o := range pl.Outages {
		if o.End < o.Start {
			return fmt.Errorf("faults: outage on %d<->%d ends (%v) before it starts (%v)", o.A, o.B, o.End, o.Start)
		}
	}
	return nil
}

// Generate draws a plan from the configuration for a network of numHosts
// hosts, never crashing the protected host. Generation is deterministic in
// cfg.Seed; the same configuration always yields the same plan. Crash
// windows are non-overlapping per host by construction: windows landing
// inside an earlier window of the same host are pushed past it, and pushed
// windows that leave the horizon are discarded.
func Generate(cfg Config, numHosts int, protected netmodel.HostID) *Plan {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pl := &Plan{DropProb: cfg.DropProb, DupProb: cfg.DupProb}
	horizon := sim.FromDuration(cfg.Horizon)

	// Crash windows.
	eligible := make([]netmodel.HostID, 0, numHosts)
	for h := 0; h < numHosts; h++ {
		if netmodel.HostID(h) != protected {
			eligible = append(eligible, netmodel.HostID(h))
		}
	}
	if len(eligible) > 0 {
		for i := 0; i < cfg.Crashes; i++ {
			h := eligible[rng.Intn(len(eligible))]
			at := sim.Time(rng.Int63n(int64(horizon)))
			down := time.Duration(float64(cfg.MeanDowntime) * (0.5 + rng.Float64()))
			pl.Crashes = append(pl.Crashes, CrashWindow{Host: h, At: at, RecoverAt: at.Add(down)})
		}
		pl.Crashes = separateCrashes(pl.Crashes, horizon)
	}

	// Link outages on random links.
	for i := 0; i < cfg.LinkOutages && numHosts >= 2; i++ {
		a := rng.Intn(numHosts)
		b := rng.Intn(numHosts - 1)
		if b >= a {
			b++
		}
		if a > b {
			a, b = b, a
		}
		start := sim.Time(rng.Int63n(int64(horizon)))
		pl.Outages = append(pl.Outages, LinkOutage{
			A: netmodel.HostID(a), B: netmodel.HostID(b),
			Start: start, End: start.Add(cfg.OutageDuration),
		})
	}
	return pl
}

// separateCrashes sorts windows by (host, start) and pushes each window of a
// host past the previous one (plus a one-second gap) so no two windows of
// the same host overlap; windows pushed beyond the horizon are dropped. The
// result is globally sorted by start time, ready for scheduling.
func separateCrashes(ws []CrashWindow, horizon sim.Time) []CrashWindow {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Host != ws[j].Host {
			return ws[i].Host < ws[j].Host
		}
		return ws[i].At < ws[j].At
	})
	out := ws[:0]
	var prev *CrashWindow
	for _, w := range ws {
		if prev != nil && w.Host == prev.Host && w.At <= prev.RecoverAt {
			shift := prev.RecoverAt + sim.Second - w.At
			w.At += shift
			w.RecoverAt += shift
			if w.At >= horizon {
				continue
			}
		}
		out = append(out, w)
		prev = &out[len(out)-1]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
