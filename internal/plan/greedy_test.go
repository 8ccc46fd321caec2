package plan

import (
	"testing"
	"testing/quick"
)

func TestGreedyBinaryPairsCheapestFirst(t *testing.T) {
	// Servers 0 and 1 are "close" (cheap pair); 2 and 3 are close; the two
	// clusters are far apart. The greedy tree must pair (0,1) and (2,3)
	// before joining the clusters.
	cost := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		if (a == 0 && b == 1) || (a == 2 && b == 3) {
			return 1
		}
		return 100
	}
	tr := GreedyBinary(4, cost)
	tr.Validate()
	// Find the level-0 operators and check their children's server indices.
	pairs := map[[2]int]bool{}
	for _, op := range tr.Operators() {
		n := tr.Node(op)
		a, b := tr.Node(n.Children[0]), tr.Node(n.Children[1])
		if a.Kind == Server && b.Kind == Server {
			x, y := a.ServerIndex, b.ServerIndex
			if x > y {
				x, y = y, x
			}
			pairs[[2]int{x, y}] = true
		}
	}
	if !pairs[[2]int{0, 1}] || !pairs[[2]int{2, 3}] {
		t.Errorf("greedy pairs = %v, want {0,1} and {2,3}", pairs)
	}
}

func TestGreedyBinaryUniformIsValid(t *testing.T) {
	tr := GreedyBinary(7, func(a, b int) float64 { return 1 })
	tr.Validate()
	if tr.NumOperators() != 6 {
		t.Errorf("operators = %d", tr.NumOperators())
	}
}

func TestGreedyBinaryValidation(t *testing.T) {
	t.Run("too few servers", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		GreedyBinary(1, func(a, b int) float64 { return 1 })
	})
	t.Run("nil cost", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		GreedyBinary(2, nil)
	})
}

// Property: for any symmetric cost function, the greedy tree is structurally
// valid and contains every server exactly once.
func TestGreedyBinaryProperty(t *testing.T) {
	prop := func(n uint8, costs []uint16) bool {
		servers := int(n%14) + 2
		cost := func(a, b int) float64 {
			if a > b {
				a, b = b, a
			}
			idx := a*servers + b
			if len(costs) == 0 {
				return 1
			}
			return float64(costs[idx%len(costs)]) + 1
		}
		tr := GreedyBinary(servers, cost)
		tr.Validate()
		seen := map[int]int{}
		for _, s := range tr.Servers() {
			seen[tr.Node(s).ServerIndex]++
		}
		if len(seen) != servers {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return tr.NumOperators() == servers-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
