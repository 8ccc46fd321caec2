// Package plan models data-combination plans: the operator tree (ordering of
// pairwise combination operations), the assignment of operators to hosts
// (placement), and the cost model used to evaluate a placement's critical
// path — "the length of the longest path from a server to the final
// destination (the client)".
//
// Two tree shapes from the paper are provided: the complete (maximally
// bushy) binary tree used for the main experiments, and the left-deep
// (linear) tree common in database query plans, used for the combination-
// order experiment (Figure 10).
package plan

import (
	"fmt"
	"strings"

	"wadc/internal/netmodel"
)

// NodeID indexes a node within a Tree.
type NodeID int

// NoNode marks an absent node reference (the client's parent).
const NoNode NodeID = -1

// Kind distinguishes tree node roles.
type Kind int

// Node kinds: servers are leaves, operators combine two inputs, the client
// is the root consumer.
const (
	Server Kind = iota
	Operator
	Client
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Server:
		return "server"
	case Operator:
		return "operator"
	case Client:
		return "client"
	default:
		return "unknown"
	}
}

// Node is one vertex of the combination tree.
type Node struct {
	ID       NodeID
	Kind     Kind
	Parent   NodeID
	Children []NodeID
	// Level is the operator's height above the servers: an operator whose
	// children are both servers has level 0. The local algorithm staggers
	// its epochs by level so relocation decisions sweep up the tree as a
	// wavefront (paper §2.3). Servers have level -1; the client has the
	// maximum operator level + 1.
	Level int
	// ServerIndex is the 0-based data-source index for Server nodes, -1
	// otherwise.
	ServerIndex int
}

// Tree is an immutable combination tree: NumServers leaves, NumServers-1
// binary operators, and a client root consuming the final operator's output.
type Tree struct {
	nodes     []Node
	servers   []NodeID
	operators []NodeID
	client    NodeID
	depth     int // number of distinct operator levels
}

// NumServers returns the number of leaf data sources.
func (t *Tree) NumServers() int { return len(t.servers) }

// NumOperators returns the number of combination operators.
func (t *Tree) NumOperators() int { return len(t.operators) }

// NumNodes returns the total node count including the client.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Depth returns the number of operator levels (e.g. 3 for a complete binary
// tree over 8 servers).
func (t *Tree) Depth() int { return t.depth }

// Node returns the node with the given id.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// Servers returns the leaf node ids in server-index order.
func (t *Tree) Servers() []NodeID { return append([]NodeID(nil), t.servers...) }

// Operators returns the operator node ids.
func (t *Tree) Operators() []NodeID { return append([]NodeID(nil), t.operators...) }

// ClientNode returns the root (client) node id.
func (t *Tree) ClientNode() NodeID { return t.client }

// Root returns the final operator (the client's single child).
func (t *Tree) Root() NodeID { return t.nodes[t.client].Children[0] }

// builder assembles trees.
type builder struct {
	nodes []Node
}

func (b *builder) addNode(kind Kind, serverIdx int) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{
		ID: id, Kind: kind, Parent: NoNode, Level: -1, ServerIndex: serverIdx,
	})
	return id
}

func (b *builder) combine(a, c NodeID) NodeID {
	op := b.addNode(Operator, -1)
	b.nodes[op].Children = []NodeID{a, c}
	b.nodes[a].Parent = op
	b.nodes[c].Parent = op
	lvl := 0
	for _, ch := range []NodeID{a, c} {
		if b.nodes[ch].Kind == Operator && b.nodes[ch].Level+1 > lvl {
			lvl = b.nodes[ch].Level + 1
		}
	}
	b.nodes[op].Level = lvl
	return op
}

func (b *builder) finish(root NodeID) *Tree {
	client := b.addNode(Client, -1)
	b.nodes[client].Children = []NodeID{root}
	b.nodes[root].Parent = client
	// A binary tree over s servers has 2s nodes: s servers, s-1 operators
	// and the client.
	s := len(b.nodes) / 2
	t := &Tree{nodes: b.nodes, client: client,
		servers: make([]NodeID, 0, s), operators: make([]NodeID, 0, s-1)}
	maxLevel := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		switch n.Kind {
		case Server:
			t.servers = append(t.servers, n.ID)
		case Operator:
			t.operators = append(t.operators, n.ID)
			if n.Level > maxLevel {
				maxLevel = n.Level
			}
		}
	}
	t.depth = maxLevel + 1
	t.nodes[client].Level = maxLevel + 1
	return t
}

// CompleteBinary builds a (maximally bushy) balanced binary combination tree
// over numServers sources. For powers of two this is the perfect binary tree
// of the paper's main experiments; for other counts pairs are combined
// breadth-first, keeping the tree as shallow as possible.
func CompleteBinary(numServers int) *Tree {
	if numServers < 2 {
		panic(fmt.Sprintf("plan: need at least 2 servers, got %d", numServers))
	}
	b := &builder{}
	frontier := make([]NodeID, numServers)
	for i := range frontier {
		frontier[i] = b.addNode(Server, i)
	}
	for len(frontier) > 1 {
		next := make([]NodeID, 0, (len(frontier)+1)/2)
		for i := 0; i+1 < len(frontier); i += 2 {
			next = append(next, b.combine(frontier[i], frontier[i+1]))
		}
		if len(frontier)%2 == 1 {
			next = append(next, frontier[len(frontier)-1])
		}
		frontier = next
	}
	return b.finish(frontier[0])
}

// LeftDeep builds the linear left-deep tree of Figure 5: the first two
// servers combine, then each further server joins the running result.
func LeftDeep(numServers int) *Tree {
	if numServers < 2 {
		panic(fmt.Sprintf("plan: need at least 2 servers, got %d", numServers))
	}
	b := &builder{}
	servers := make([]NodeID, numServers)
	for i := range servers {
		servers[i] = b.addNode(Server, i)
	}
	acc := b.combine(servers[0], servers[1])
	for i := 2; i < numServers; i++ {
		acc = b.combine(acc, servers[i])
	}
	return b.finish(acc)
}

// Validate checks structural invariants; it is used by tests and panics on
// violation (a malformed tree is a programming error, not an input error).
func (t *Tree) Validate() {
	if len(t.operators) != len(t.servers)-1 {
		panic(fmt.Sprintf("plan: %d operators for %d servers", len(t.operators), len(t.servers)))
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		switch n.Kind {
		case Server:
			if len(n.Children) != 0 {
				panic("plan: server with children")
			}
		case Operator:
			if len(n.Children) != 2 {
				panic("plan: operator without exactly 2 children")
			}
		case Client:
			if len(n.Children) != 1 || n.Parent != NoNode {
				panic("plan: malformed client")
			}
		}
		for _, c := range n.Children {
			if t.nodes[c].Parent != n.ID {
				panic("plan: parent/child mismatch")
			}
		}
	}
}

// String renders the tree in indented outline form for debugging.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(id NodeID, indent int)
	walk = func(id NodeID, indent int) {
		n := t.Node(id)
		fmt.Fprintf(&sb, "%s%v#%d(level=%d)\n", strings.Repeat("  ", indent), n.Kind, id, n.Level)
		for _, c := range n.Children {
			walk(c, indent+1)
		}
	}
	walk(t.client, 0)
	return sb.String()
}

// DefaultHostAssignment maps each server index to a host: the experiment
// convention is hosts 0..S-1 are the servers and host S is the client.
func DefaultHostAssignment(numServers int) (serverHosts []netmodel.HostID, clientHost netmodel.HostID) {
	serverHosts = make([]netmodel.HostID, numServers)
	for i := range serverHosts {
		serverHosts[i] = netmodel.HostID(i)
	}
	return serverHosts, netmodel.HostID(numServers)
}
