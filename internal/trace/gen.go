package trace

import (
	"fmt"
	"math"
	"math/rand"

	"wadc/internal/sim"
)

// GenParams controls the synthetic bandwidth generator. The generated process
// is a Markov-modulated level (congestion regimes) times a diurnal cycle
// times multiplicative lognormal noise — the standard shape of application-
// level wide-area bandwidth, and sufficient to match the two statistics the
// paper reports about its real traces: large long-term swings (Figure 2) and
// an expected time between >= 10 % changes of about two minutes.
type GenParams struct {
	// Base is the uncongested mean bandwidth.
	Base Bandwidth
	// DiurnalAmplitude in [0,1) scales a 24-hour cosine (peak at 04:00 local,
	// trough mid-afternoon). 0 disables the diurnal cycle.
	DiurnalAmplitude float64
	// NoiseSigma is the sigma of the per-sample multiplicative lognormal
	// noise (as a fraction, e.g. 0.04).
	NoiseSigma float64
	// CongestionLevels are multipliers for the Markov congestion states;
	// index 0 should be 1.0 (uncongested). The chain random-walks between
	// adjacent states.
	CongestionLevels []float64
	// SwitchProb is the per-sample probability of moving to an adjacent
	// congestion state. With Interval = 10 s, 0.083 yields a mean time
	// between significant changes close to the paper's two minutes.
	SwitchProb float64
	// Interval is the sample spacing.
	Interval sim.Time
	// Duration is the total trace length (the paper's traces span two days).
	Duration sim.Time
}

// DefaultGenParams returns the calibrated defaults for a given base
// bandwidth: 10 s samples over two days, moderate diurnal cycle, four
// congestion regimes, and a switch probability tuned so the expected time
// between >= 10 % changes is roughly two minutes.
func DefaultGenParams(base Bandwidth) GenParams {
	return GenParams{
		Base:             base,
		DiurnalAmplitude: 0.25,
		NoiseSigma:       0.04,
		CongestionLevels: []float64{1.0, 0.65, 0.4, 0.22},
		SwitchProb:       0.083,
		Interval:         10 * sim.Second,
		Duration:         48 * sim.Hour,
	}
}

// Generate produces a deterministic synthetic trace for the given seed.
func Generate(name string, seed int64, p GenParams) *Trace {
	if p.Interval <= 0 {
		panic("trace: Generate requires a positive Interval")
	}
	if p.Duration < p.Interval {
		p.Duration = p.Interval
	}
	if len(p.CongestionLevels) == 0 {
		p.CongestionLevels = []float64{1.0}
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(p.Duration / p.Interval)
	samples := make([]Bandwidth, n)
	state := 0
	day := (24 * sim.Hour).Seconds()
	for i := 0; i < n; i++ {
		if rng.Float64() < p.SwitchProb {
			state = stepState(rng, state, len(p.CongestionLevels))
		}
		t := (sim.Time(i) * p.Interval).Seconds()
		diurnal := 1.0
		if p.DiurnalAmplitude > 0 {
			// Peak at 04:00, trough at 16:00.
			diurnal = 1 + p.DiurnalAmplitude*math.Cos(2*math.Pi*(t-4*3600)/day)
		}
		noise := math.Exp(rng.NormFloat64() * p.NoiseSigma)
		bw := float64(p.Base) * p.CongestionLevels[state] * diurnal * noise
		if bw < float64(minBandwidth) {
			bw = float64(minBandwidth)
		}
		samples[i] = Bandwidth(bw)
	}
	return New(name, p.Interval, samples)
}

// stepState random-walks to an adjacent congestion state.
func stepState(rng *rand.Rand, state, n int) int {
	if n == 1 {
		return 0
	}
	switch state {
	case 0:
		return 1
	case n - 1:
		return n - 2
	default:
		if rng.Intn(2) == 0 {
			return state - 1
		}
		return state + 1
	}
}

// Region classifies hosts by geography, mirroring the paper's bandwidth
// study: "US hosts (east coast, west coast, midwest and south), European
// hosts (in Spain, France and Austria) and one host in Brazil".
type Region int

// Regions from the paper's host set.
const (
	USEast Region = iota
	USWest
	USMidwest
	USSouth
	Spain
	France
	Austria
	Brazil
	numRegions
)

// String implements fmt.Stringer.
func (r Region) String() string {
	names := [...]string{"us-east", "us-west", "us-midwest", "us-south",
		"spain", "france", "austria", "brazil"}
	if r < 0 || int(r) >= len(names) {
		return "unknown"
	}
	return names[r]
}

// StudyHosts is the default host list of the bandwidth study: eight US hosts
// across the four US regions, three European hosts, one Brazilian host — a
// 12-host study yielding 66 host-pair traces, comfortably more than the 36
// links of the paper's nine-node experiment graph.
func StudyHosts() []Region {
	return []Region{
		USEast, USEast, USWest, USWest, USMidwest, USMidwest, USSouth, USSouth,
		Spain, France, Austria, Brazil,
	}
}

// pairBase returns the 1998-era application-level base bandwidth for a host
// pair, by region pair.
func pairBase(a, b Region) Bandwidth {
	us := func(r Region) bool { return r <= USSouth }
	eu := func(r Region) bool { return r == Spain || r == France || r == Austria }
	switch {
	case a == b:
		return KBps(220) // same region
	case us(a) && us(b):
		return KBps(70) // cross-country US
	case eu(a) && eu(b):
		return KBps(90) // intra-Europe
	case (us(a) && eu(b)) || (eu(a) && us(b)):
		return KBps(28) // transatlantic
	case a == Brazil || b == Brazil:
		return KBps(12) // Brazil to anywhere
	default:
		return KBps(30)
	}
}

// Pool is a library of host-pair traces from which experiment network
// configurations draw, exactly as the paper assigned its measured traces to
// the links of a complete graph "using a uniform random number generator".
type Pool struct {
	traces []*Trace
}

// NewStudyPool generates the full pair-wise trace library for the default
// study hosts, deterministically from seed. Each pair's base bandwidth is
// jittered by up to ±30 % so no two traces are statistically identical.
func NewStudyPool(seed int64) *Pool {
	return NewPool(seed, StudyHosts())
}

// NewPool generates a trace for every unordered pair of the given hosts.
func NewPool(seed int64, hosts []Region) *Pool {
	rng := rand.New(rand.NewSource(seed))
	p := &Pool{}
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			base := pairBase(hosts[i], hosts[j])
			jitter := 0.7 + 0.6*rng.Float64()
			params := DefaultGenParams(Bandwidth(float64(base) * jitter))
			name := fmt.Sprintf("%s<->%s#%d", hosts[i], hosts[j], len(p.traces))
			p.traces = append(p.traces, Generate(name, rng.Int63(), params))
		}
	}
	return p
}

// Size returns the number of traces in the pool.
func (p *Pool) Size() int { return len(p.traces) }

// Trace returns the i-th trace.
func (p *Pool) Trace(i int) *Trace { return p.traces[i] }

// Pick returns a uniformly random trace using the supplied generator.
func (p *Pool) Pick(rng *rand.Rand) *Trace { return p.traces[rng.Intn(len(p.traces))] }
