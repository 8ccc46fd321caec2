package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// paperConfig is the paper's workload: 180 images of about 128 KB per
// server.
var paperConfig = Config{
	ImagesPerServer: DefaultImagesPerServer,
	MeanBytes:       DefaultMeanBytes,
	SpreadFrac:      DefaultSpreadFrac,
}

func TestGenerateShape(t *testing.T) {
	images := Generate(1, 8, paperConfig)
	if len(images) != 8 {
		t.Fatalf("servers = %d", len(images))
	}
	for s, seq := range images {
		if len(seq) != DefaultImagesPerServer {
			t.Fatalf("server %d has %d images", s, len(seq))
		}
		for i, im := range seq {
			if im.Index != i {
				t.Errorf("server %d image %d index = %d", s, i, im.Index)
			}
			if im.Bytes < MinBytes {
				t.Errorf("image below floor: %d", im.Bytes)
			}
		}
	}
}

func TestGenerateDistribution(t *testing.T) {
	images := Generate(42, 20, paperConfig)
	var sum, sumSq, n float64
	for _, seq := range images {
		for _, im := range seq {
			f := float64(im.Bytes)
			sum += f
			sumSq += f * f
			n++
		}
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-float64(DefaultMeanBytes)) > 0.03*float64(DefaultMeanBytes) {
		t.Errorf("mean = %.0f, want ~%d", mean, DefaultMeanBytes)
	}
	if math.Abs(sd/mean-0.25) > 0.05 {
		t.Errorf("relative sd = %.3f, want ~0.25", sd/mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, 2, paperConfig)
	b := Generate(7, 2, paperConfig)
	for s := range a {
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatalf("nondeterministic at [%d][%d]", s, i)
			}
		}
	}
}

func TestGenerateZeroConfigDefaults(t *testing.T) {
	images := Generate(1, 1, Config{SpreadFrac: -1})
	if len(images[0]) != DefaultImagesPerServer {
		t.Errorf("default count = %d", len(images[0]))
	}
	if MeanBytes(images) < MinBytes {
		t.Errorf("mean = %d", MeanBytes(images))
	}
}

func TestComposeBytes(t *testing.T) {
	if ComposeBytes(100, 200) != 200 || ComposeBytes(300, 200) != 300 {
		t.Error("ComposeBytes wrong")
	}
}

func TestComposeDuration(t *testing.T) {
	if got := ComposeDuration(1000, 2000); got != 14*time.Millisecond {
		t.Errorf("duration = %v", got)
	}
	if got := ComposeDuration(1, 2); got != 14*time.Microsecond {
		t.Errorf("duration = %v", got)
	}
}

func TestMeanBytesEmpty(t *testing.T) {
	if MeanBytes(nil) != DefaultMeanBytes {
		t.Error("empty mean wrong")
	}
}

// Property: composition is commutative, associative in size, and the result
// never shrinks below either input.
func TestComposeProperty(t *testing.T) {
	prop := func(a, b, c uint32) bool {
		x, y, z := int64(a), int64(b), int64(c)
		if ComposeBytes(x, y) != ComposeBytes(y, x) {
			return false
		}
		if ComposeBytes(ComposeBytes(x, y), z) != ComposeBytes(x, ComposeBytes(y, z)) {
			return false
		}
		r := ComposeBytes(x, y)
		return r >= x && r >= y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
