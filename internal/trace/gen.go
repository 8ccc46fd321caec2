package trace

import (
	"fmt"
	"math"
	"math/rand"

	"wadc/internal/sim"
)

// The generator's calibration. The generated process is a Markov-modulated
// level (congestion regimes) times a diurnal cycle times multiplicative
// lognormal noise — the standard shape of application-level wide-area
// bandwidth, and sufficient to match the two statistics the paper reports
// about its real traces: large long-term swings (Figure 2) and an expected
// time between >= 10 % changes of about two minutes.
const (
	// diurnalAmplitude scales a 24-hour cosine (peak at 04:00 local, trough
	// mid-afternoon).
	diurnalAmplitude = 0.25
	// noiseSigma is the sigma of the per-sample multiplicative lognormal
	// noise.
	noiseSigma = 0.04
	// genInterval is the sample spacing.
	genInterval = 10 * sim.Second
	// genDuration is the trace length: the paper's traces span two days.
	genDuration = 48 * sim.Hour
	// StudySwitchProb is the study pool's per-sample probability of moving
	// to an adjacent congestion state: at 10 s samples it yields a mean time
	// between significant changes close to the paper's two minutes.
	StudySwitchProb = 0.083
)

// congestionLevels are the multipliers of the four Markov congestion
// states, uncongested first; the chain random-walks between adjacent states.
var congestionLevels = [...]float64{1.0, 0.65, 0.4, 0.22}

// Generate produces a deterministic synthetic two-day trace of 10 s samples
// around the uncongested mean bandwidth base, moving to an adjacent
// congestion state with probability switchProb per sample.
func Generate(name string, seed int64, base Bandwidth, switchProb float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	n := int(genDuration / genInterval)
	samples := make([]Bandwidth, n)
	state := 0
	day := (24 * sim.Hour).Seconds()
	for i := 0; i < n; i++ {
		if rng.Float64() < switchProb {
			state = stepState(rng, state)
		}
		t := (sim.Time(i) * genInterval).Seconds()
		// Peak at 04:00, trough at 16:00.
		diurnal := 1 + diurnalAmplitude*math.Cos(2*math.Pi*(t-4*3600)/day)
		noise := math.Exp(rng.NormFloat64() * noiseSigma)
		bw := float64(base) * congestionLevels[state] * diurnal * noise
		if bw < float64(minBandwidth) {
			bw = float64(minBandwidth)
		}
		samples[i] = Bandwidth(bw)
	}
	return New(name, genInterval, samples)
}

// stepState random-walks to an adjacent congestion state.
func stepState(rng *rand.Rand, state int) int {
	switch state {
	case 0:
		return 1
	case len(congestionLevels) - 1:
		return state - 1
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

// studyHosts is the host list of the bandwidth study: eight US hosts across
// the four US regions, three European hosts, one Brazilian host — a 12-host
// study yielding 66 host-pair traces, comfortably more than the 36 links of
// the paper's nine-node experiment graph.
var studyHosts = [...]Region{
	USEast, USEast, USWest, USWest, USMidwest, USMidwest, USSouth, USSouth,
	Spain, France, Austria, Brazil,
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

// NewStudyPool generates a trace for every unordered pair of the study
// hosts, deterministically from seed. Each pair's base bandwidth is jittered
// by up to ±30 % so no two traces are statistically identical.
func NewStudyPool(seed int64) *Pool {
	hosts := studyHosts
	rng := rand.New(rand.NewSource(seed))
	p := &Pool{}
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			base := pairBase(hosts[i], hosts[j])
			jitter := 0.7 + 0.6*rng.Float64()
			name := fmt.Sprintf("%s<->%s#%d", hosts[i], hosts[j], len(p.traces))
			p.traces = append(p.traces, Generate(name, rng.Int63(), Bandwidth(float64(base)*jitter), StudySwitchProb))
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
