package core

import (
	"fmt"
	"time"

	"wadc/internal/placement"
)

// PolicyOptions parameterise NewPolicy. The zero value gives each algorithm
// its package defaults.
type PolicyOptions struct {
	// Period is the relocation period for the on-line algorithms (global and
	// local); zero means the package default.
	Period time.Duration
	// Extra is the local algorithm's count of additional random candidate
	// hosts; NewPolicy rejects a negative count, and any count for every
	// other algorithm.
	Extra int
	// Seed drives the local algorithm's candidate sampling.
	Seed int64
}

// NewPolicy constructs a placement policy by name. Policies are stateful:
// every run (and every tenant of a multi-tenant run) needs its own instance.
func NewPolicy(name string, opts PolicyOptions) (placement.Policy, error) {
	if opts.Extra < 0 {
		return nil, fmt.Errorf("core: extra candidates must be >= 0, got %d", opts.Extra)
	}
	if opts.Extra != 0 && name != "local" {
		return nil, fmt.Errorf("core: extra candidates apply to the local algorithm only, not %q", name)
	}
	switch name {
	case "download-all":
		return placement.DownloadAll{}, nil
	case "one-shot":
		return placement.OneShot{}, nil
	case "global":
		return &placement.Global{Period: opts.Period}, nil
	case "local":
		return &placement.Local{Period: opts.Period, Extra: opts.Extra, Seed: opts.Seed}, nil
	default:
		return nil, fmt.Errorf("core: unknown placement algorithm %q", name)
	}
}

// ParseShape maps a combination-order name to its TreeShape. The empty
// string and "binary" select the complete binary tree.
func ParseShape(name string) (TreeShape, error) {
	switch name {
	case "", "binary":
		return CompleteBinaryTree, nil
	case "left-deep":
		return LeftDeepTree, nil
	case "greedy":
		return GreedyBandwidthTree, nil
	default:
		return CompleteBinaryTree, fmt.Errorf("core: unknown tree shape %q", name)
	}
}
