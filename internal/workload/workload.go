// Package workload generates the paper's evaluation workload: sequences of
// satellite images served by geographically distributed sites (the AVHRR
// Pathfinder-style composition task). The paper surveyed over 1000 hurricane
// images from 15 web sites and found sizes "fit a normal distribution with a
// mean close to 128KB and a variance of 25%"; each server delivers a sequence
// of 180 images drawn from that distribution.
package workload

import (
	"math/rand"
	"time"

	"wadc/internal/netmodel"
)

// Defaults from the paper.
const (
	// DefaultImagesPerServer is the sequence length per data source.
	DefaultImagesPerServer = 180
	// DefaultMeanBytes is the mean image size (128 KB).
	DefaultMeanBytes int64 = 128 * 1024
	// DefaultSpreadFrac is the paper's "variance of 25%", read as a relative
	// spread: the standard deviation is 25 % of the mean.
	DefaultSpreadFrac = 0.25
	// MinBytes floors image sizes so the normal draw cannot produce
	// degenerate or negative sizes.
	MinBytes int64 = 4 * 1024
)

// Image is one data partition: a satellite image identified by its position
// in the server's sequence. One byte is one pixel.
type Image struct {
	Index int
	Bytes int64
}

// Config parameterises workload generation.
type Config struct {
	ImagesPerServer int
	MeanBytes       int64
	SpreadFrac      float64
}

// Generate produces the image sequences for numServers servers,
// deterministically from seed. Result[s][i] is server s's i-th image.
func Generate(seed int64, numServers int, cfg Config) [][]Image {
	if cfg.ImagesPerServer <= 0 {
		cfg.ImagesPerServer = DefaultImagesPerServer
	}
	if cfg.MeanBytes <= 0 {
		cfg.MeanBytes = DefaultMeanBytes
	}
	if cfg.SpreadFrac < 0 {
		cfg.SpreadFrac = DefaultSpreadFrac
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Image, numServers)
	for s := range out {
		seq := make([]Image, cfg.ImagesPerServer)
		for i := range seq {
			size := int64(float64(cfg.MeanBytes) * (1 + rng.NormFloat64()*cfg.SpreadFrac))
			if size < MinBytes {
				size = MinBytes
			}
			seq[i] = Image{Index: i, Bytes: size}
		}
		out[s] = seq
	}
	return out
}

// ComposeBytes returns the size of composing two images: "if the images are
// of different sizes, the smaller image is expanded to the size of the
// larger image. The resulting image is the same size as the larger image."
func ComposeBytes(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ComposeDuration returns the CPU time of one pairwise composition at the
// paper's 7 µs/pixel: the comparison touches every pixel of the (expanded)
// result.
func ComposeDuration(a, b int64) time.Duration {
	return time.Duration(ComposeBytes(a, b)) * netmodel.DefaultComposePerPixel
}

// MeanBytes returns the empirical mean image size across all sequences,
// used to parameterise the placement cost model.
func MeanBytes(images [][]Image) int64 {
	var sum, n int64
	for _, seq := range images {
		for _, im := range seq {
			sum += im.Bytes
			n++
		}
	}
	if n == 0 {
		return DefaultMeanBytes
	}
	return sum / n
}
