package experiment

import (
	"testing"
	"time"

	"wadc/internal/core"
)

func TestTimingFullScale(t *testing.T) {
	start := time.Now()
	o := Options{Configs: 2, Servers: 8, Iterations: 180, Seed: 1}
	sweep, err := RunSweep(o, core.CompleteBinaryTree, StandardAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2 configs x 4 algs, 8 servers, 180 iters: %v wall", time.Since(start))
	for alg, cells := range sweep.Cells {
		t.Logf("%s: completion %.1fs / %.1fs sim", alg, cells[0].CompletionSec, cells[1].CompletionSec)
	}
	start = time.Now()
	o32 := Options{Configs: 1, Servers: 32, Iterations: 180, Seed: 1}
	_, err = RunSweep(o32, core.CompleteBinaryTree, StandardAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1 config x 4 algs, 32 servers, 180 iters: %v wall", time.Since(start))
}
