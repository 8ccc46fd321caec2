package plan

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCompleteBinaryShape(t *testing.T) {
	tests := []struct {
		servers   int
		depth     int
		operators int
	}{
		{2, 1, 1},
		{4, 2, 3},
		{8, 3, 7},
		{16, 4, 15},
		{32, 5, 31},
		{3, 2, 2}, // non-power-of-two
		{5, 3, 4}, // non-power-of-two
		{7, 3, 6}, // non-power-of-two
	}
	for _, tt := range tests {
		tr := CompleteBinary(tt.servers)
		tr.Validate()
		if tr.NumServers() != tt.servers {
			t.Errorf("servers(%d) = %d", tt.servers, tr.NumServers())
		}
		if tr.NumOperators() != tt.operators {
			t.Errorf("operators(%d) = %d, want %d", tt.servers, tr.NumOperators(), tt.operators)
		}
		if tr.Depth() != tt.depth {
			t.Errorf("depth(%d) = %d, want %d", tt.servers, tr.Depth(), tt.depth)
		}
	}
}

func TestLeftDeepShape(t *testing.T) {
	for _, s := range []int{2, 3, 4, 8, 16} {
		tr := LeftDeep(s)
		tr.Validate()
		if tr.NumOperators() != s-1 {
			t.Errorf("operators(%d) = %d", s, tr.NumOperators())
		}
		// A left-deep tree is maximally deep: one level per operator.
		if tr.Depth() != s-1 {
			t.Errorf("depth(%d) = %d, want %d", s, tr.Depth(), s-1)
		}
	}
}

func TestTreeMinimumServers(t *testing.T) {
	for _, f := range []func(int) *Tree{CompleteBinary, LeftDeep} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("1 server did not panic")
				}
			}()
			f(1)
		}()
	}
}

func TestClientAndRoot(t *testing.T) {
	tr := CompleteBinary(4)
	c := tr.Node(tr.ClientNode())
	if c.Kind != Client || len(c.Children) != 1 {
		t.Fatalf("client node malformed: %+v", c)
	}
	root := tr.Node(tr.Root())
	if root.Kind != Operator || root.Parent != tr.ClientNode() {
		t.Errorf("root malformed: %+v", root)
	}
	if c.Level != tr.Depth() {
		t.Errorf("client level = %d, want %d", c.Level, tr.Depth())
	}
}

func TestLevelsBottomUp(t *testing.T) {
	tr := CompleteBinary(8)
	// Operators adjacent to servers have level 0; root has level depth-1.
	for _, op := range tr.Operators() {
		n := tr.Node(op)
		bothServers := tr.Node(n.Children[0]).Kind == Server && tr.Node(n.Children[1]).Kind == Server
		if bothServers && n.Level != 0 {
			t.Errorf("leaf-adjacent operator %d level = %d", op, n.Level)
		}
	}
	if got := tr.Node(tr.Root()).Level; got != 2 {
		t.Errorf("root level = %d, want 2", got)
	}
	for _, s := range tr.Servers() {
		if tr.Node(s).Level != -1 {
			t.Errorf("server level = %d", tr.Node(s).Level)
		}
	}
}

func TestServerIndexOrder(t *testing.T) {
	tr := LeftDeep(5)
	for i, s := range tr.Servers() {
		if tr.Node(s).ServerIndex != i {
			t.Errorf("server %d has index %d", i, tr.Node(s).ServerIndex)
		}
	}
}

func TestTreeString(t *testing.T) {
	s := CompleteBinary(2).String()
	if !strings.Contains(s, "client") || !strings.Contains(s, "operator") || !strings.Contains(s, "server") {
		t.Errorf("String output missing kinds:\n%s", s)
	}
	if Kind(42).String() != "unknown" {
		t.Error("unknown kind name")
	}
}

func TestDefaultHostAssignment(t *testing.T) {
	sh, ch := DefaultHostAssignment(4)
	if len(sh) != 4 || sh[0] != 0 || sh[3] != 3 || ch != 4 {
		t.Errorf("assignment = %v, %v", sh, ch)
	}
}

// Property: for any server count, both shapes produce structurally valid
// trees with exactly n-1 operators, and every server is reachable from the
// client.
func TestTreeInvariantsProperty(t *testing.T) {
	prop := func(n uint8) bool {
		servers := int(n%31) + 2
		for _, tr := range []*Tree{CompleteBinary(servers), LeftDeep(servers)} {
			tr.Validate()
			if tr.NumOperators() != servers-1 {
				return false
			}
			// Reachability: walk from client, count servers.
			count := 0
			var walk func(id NodeID)
			walk = func(id NodeID) {
				if tr.Node(id).Kind == Server {
					count++
				}
				for _, c := range tr.Node(id).Children {
					walk(c)
				}
			}
			walk(tr.ClientNode())
			if count != servers {
				return false
			}
			// Complete binary must be no deeper than left-deep.
		}
		if CompleteBinary(servers).Depth() > LeftDeep(servers).Depth() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
