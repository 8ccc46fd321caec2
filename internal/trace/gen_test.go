package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"wadc/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("a", 7, KBps(50), StudySwitchProb)
	b := Generate("a", 7, KBps(50), StudySwitchProb)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i, v := range a.Samples() {
		if b.Samples()[i] != v {
			t.Fatalf("sample %d differs", i)
		}
	}
	c := Generate("a", 8, KBps(50), StudySwitchProb)
	same := true
	for i, v := range a.Samples() {
		if c.Samples()[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateCalibration(t *testing.T) {
	// The paper: "the expected time between significant changes in the
	// bandwidth (>= 10%) was about 2 minutes". Check the generator lands in
	// a broad band around that (1-4 minutes) averaged over several traces.
	var total time.Duration
	const n = 8
	for seed := int64(0); seed < n; seed++ {
		tr := Generate("cal", seed, KBps(60), StudySwitchProb)
		st := Analyze(tr)
		total += st.SignificantChangeInterval
	}
	mean := total / n
	if mean < time.Minute || mean > 4*time.Minute {
		t.Errorf("mean significant-change interval = %v, want ~2min (1-4min band)", mean)
	}
}

func TestGenerateDiurnalCycle(t *testing.T) {
	// With no congestion switches only the diurnal cycle and the noise
	// remain. Averaging the samples of the ten minutes around 04:00 (peak)
	// and 16:00 (trough) of both days washes the noise out, leaving the
	// cycle's 1.25/0.75 ratio.
	tr := Generate("diurnal", 1, KBps(100), 0)
	mean := func(at sim.Time) float64 {
		var sum float64
		var n int
		for _, day := range []sim.Time{0, 24 * sim.Hour} {
			for t := at - 5*sim.Minute; t < at+5*sim.Minute; t += tr.Interval() {
				sum += float64(tr.At(day + t))
				n++
			}
		}
		return sum / float64(n)
	}
	ratio := mean(4*sim.Hour) / mean(16*sim.Hour)
	if want := 1.25 / 0.75; math.Abs(ratio-want) > 0.03*want {
		t.Errorf("04:00/16:00 bandwidth ratio = %.3f, want %.3f", ratio, want)
	}
}

func TestGenerateBounds(t *testing.T) {
	tr := Generate("b", 3, KBps(40), StudySwitchProb)
	if tr.Duration() != 48*sim.Hour {
		t.Errorf("duration = %v", tr.Duration())
	}
	st := Analyze(tr)
	if st.Min < minBandwidth {
		t.Errorf("min = %v below floor", st.Min)
	}
	// Mean should be within a factor ~2 of base (congestion drags it down).
	if st.Mean < KBps(10) || st.Mean > KBps(80) {
		t.Errorf("mean = %v, implausible for base 40KB/s", st.Mean)
	}
}

func TestStepStateStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	state := 0
	for i := 0; i < 10000; i++ {
		state = stepState(rng, state)
		if state < 0 || state >= len(congestionLevels) {
			t.Fatalf("state out of range: %d", state)
		}
	}
}

func TestRegionString(t *testing.T) {
	if USEast.String() != "us-east" || Brazil.String() != "brazil" {
		t.Error("region names wrong")
	}
	if Region(99).String() != "unknown" {
		t.Error("out-of-range region name")
	}
}

func TestStudyPool(t *testing.T) {
	p := NewStudyPool(11)
	// 12 hosts -> 66 pairs.
	if p.Size() != 66 {
		t.Fatalf("pool size = %d, want 66", p.Size())
	}
	rng := rand.New(rand.NewSource(2))
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[p.Pick(rng).Name()] = true
	}
	if len(seen) < 30 {
		t.Errorf("Pick diversity too low: %d distinct", len(seen))
	}
	if p.Trace(0) == nil {
		t.Error("Trace(0) nil")
	}
}

func TestPoolClassesDistinct(t *testing.T) {
	// Brazil links must be much slower than same-region US links on average.
	slow := Analyze(Generate("slow", 1, pairBase(Brazil, USEast), StudySwitchProb))
	fast := Analyze(Generate("fast", 1, pairBase(USEast, USEast), StudySwitchProb))
	if float64(fast.Mean) < 5*float64(slow.Mean) {
		t.Errorf("class separation weak: fast=%v slow=%v", fast.Mean, slow.Mean)
	}
}

func TestPairBaseSymmetry(t *testing.T) {
	for a := Region(0); a < numRegions; a++ {
		for b := Region(0); b < numRegions; b++ {
			if pairBase(a, b) != pairBase(b, a) {
				t.Errorf("pairBase asymmetric for %v,%v", a, b)
			}
		}
	}
}

// Property: TransferDuration is monotone in bytes and BytesIn is monotone in
// duration, for arbitrary generated traces.
func TestTransferMonotoneProperty(t *testing.T) {
	prop := func(seed int64, b1, b2 uint32, startSec uint16, switchProb uint8) bool {
		tr := Generate("p", seed, KBps(float64(seed%100)+5), float64(switchProb)/255)
		lo, hi := int64(b1%1<<20), int64(b2%1<<20)
		if lo > hi {
			lo, hi = hi, lo
		}
		start := sim.Time(startSec) * sim.Second
		dLo := tr.TransferDuration(start, lo)
		dHi := tr.TransferDuration(start, hi)
		return dLo <= dHi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeSimple(t *testing.T) {
	tr := New("x", sim.Second, []Bandwidth{100, 100, 200, 200})
	st := Analyze(tr)
	if st.Mean != 150 || st.Min != 100 || st.Max != 200 {
		t.Errorf("stats = %+v", st)
	}
	if st.SignificantChanges != 1 {
		t.Errorf("changes = %d, want 1", st.SignificantChanges)
	}
	if st.SignificantChangeInterval != 4*time.Second {
		t.Errorf("interval = %v", st.SignificantChangeInterval)
	}
	if math.Abs(st.CoV-float64(st.StdDev)/150) > 1e-12 {
		t.Errorf("CoV = %v", st.CoV)
	}
}

func TestAnalyzeNoChanges(t *testing.T) {
	tr := Constant("c", 100)
	st := Analyze(tr)
	if st.SignificantChanges != 0 {
		t.Errorf("changes = %d", st.SignificantChanges)
	}
	if st.SignificantChangeInterval != tr.Duration().Duration() {
		t.Errorf("interval = %v", st.SignificantChangeInterval)
	}
}

func TestChangePointsSimple(t *testing.T) {
	tr := New("x", sim.Second, []Bandwidth{100, 105, 200, 195, 50})
	cps := tr.ChangePoints()
	want := []ChangePoint{
		{At: 2 * sim.Second, From: 100, To: 200},
		{At: 4 * sim.Second, From: 200, To: 50},
	}
	if len(cps) != len(want) {
		t.Fatalf("change points = %+v, want %+v", cps, want)
	}
	for i := range want {
		if cps[i] != want[i] {
			t.Errorf("change point %d = %+v, want %+v", i, cps[i], want[i])
		}
	}
}

func TestChangePointsNone(t *testing.T) {
	if cps := Constant("c", 100).ChangePoints(); len(cps) != 0 {
		t.Errorf("constant trace has change points: %+v", cps)
	}
}

// TestChangePointsMatchAnalyze pins the contract the estimator-accuracy layer
// depends on: the ground-truth regime-change schedule exposed by ChangePoints
// is exactly the statistic Analyze counts, on real generated traces.
func TestChangePointsMatchAnalyze(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := Generate("g", seed, pairBase(USEast, Spain), StudySwitchProb)
		cps := tr.ChangePoints()
		st := Analyze(tr)
		if len(cps) != st.SignificantChanges {
			t.Errorf("seed %d: %d change points vs %d significant changes",
				seed, len(cps), st.SignificantChanges)
		}
		// The schedule must be strictly ordered and each point a real
		// >= 10 % departure from the previous level.
		for i, cp := range cps {
			if i > 0 && cp.At <= cps[i-1].At {
				t.Fatalf("seed %d: change points out of order at %d", seed, i)
			}
			if f, l := float64(cp.To), float64(cp.From); math.Abs(f-l)/l < 0.10 {
				t.Errorf("seed %d: change point %d is below threshold: %+v", seed, i, cp)
			}
			if tr.At(cp.At) != cp.To {
				t.Errorf("seed %d: change point %d To %v disagrees with trace %v",
					seed, i, cp.To, tr.At(cp.At))
			}
		}
	}
}

func TestVariationSeries(t *testing.T) {
	tr := New("x", sim.Second, []Bandwidth{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for _, tc := range []struct {
		from, window sim.Time
		maxPoints    int
		stride, n    int // trace intervals between points, points returned
	}{
		{2 * sim.Second, 4 * sim.Second, 100, 1, 4}, // fits: every sample
		{0, 10 * sim.Second, 5, 2, 5},               // decimated
		{0, 10 * sim.Second, 3, 3, 4},               // stride 10/3 leaves a fourth point
		{0, sim.Second, 0, 1, 1},                    // degenerate maxPoints
	} {
		bws := VariationSeries(tr, tc.from, tc.window, tc.maxPoints)
		if len(bws) != tc.n {
			t.Errorf("from %v window %v max %d: %d points, want %d",
				tc.from, tc.window, tc.maxPoints, len(bws), tc.n)
			continue
		}
		for i, b := range bws {
			if at := tc.from + sim.Time(i*tc.stride)*sim.Second; b != tr.At(at) {
				t.Errorf("from %v window %v max %d: point %d = %v, want tr.At(%v) = %v",
					tc.from, tc.window, tc.maxPoints, i, b, at, tr.At(at))
			}
		}
	}
}

// hashTraces folds every trace's name and the bits of every sample, in
// order, into one FNV-64a digest.
func hashTraces(trs []*Trace) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, tr := range trs {
		h.Write([]byte(tr.Name()))
		for _, v := range tr.Samples() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(v)))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStudyPoolPinned pins every sample of the seed-1 study pool, the
// traces every experiment draws its links from: a change to the generator's
// calibration or to the order of its random draws changes this digest.
func TestStudyPoolPinned(t *testing.T) {
	p := NewStudyPool(1)
	trs := make([]*Trace, p.Size())
	for i := range trs {
		trs[i] = p.Trace(i)
	}
	const want = "4985858296f46e18"
	if got := hashTraces(trs); got != want {
		t.Errorf("study pool digest = %s, want %s", got, want)
	}
}
