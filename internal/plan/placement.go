package plan

import (
	"fmt"
	"strings"

	"wadc/internal/netmodel"
)

// Placement assigns every tree node to a host. Server and client locations
// are fixed by the problem instance (data is not replicated); only operator
// locations vary — they are what the placement algorithms optimise.
type Placement struct {
	tree *Tree
	loc  []netmodel.HostID
}

// NewPlacement creates a placement with the given fixed server and client
// hosts and all operators at the client — the paper's download-all strategy
// and the one-shot algorithm's initial state (Figure 1).
func NewPlacement(t *Tree, serverHosts []netmodel.HostID, clientHost netmodel.HostID) *Placement {
	if len(serverHosts) != t.NumServers() {
		panic(fmt.Sprintf("plan: %d server hosts for %d servers", len(serverHosts), t.NumServers()))
	}
	p := &Placement{tree: t, loc: make([]netmodel.HostID, t.NumNodes())}
	for i, s := range t.servers {
		p.loc[s] = serverHosts[i]
	}
	for _, op := range t.operators {
		p.loc[op] = clientHost
	}
	p.loc[t.client] = clientHost
	return p
}

// Tree returns the underlying combination tree.
func (p *Placement) Tree() *Tree { return p.tree }

// Loc returns the host of node id.
func (p *Placement) Loc(id NodeID) netmodel.HostID { return p.loc[id] }

// ClientHost returns the client's host.
func (p *Placement) ClientHost() netmodel.HostID { return p.loc[p.tree.client] }

// SetLoc moves an operator to a host. Panics for non-operator nodes: servers
// and the client cannot move.
func (p *Placement) SetLoc(id NodeID, h netmodel.HostID) {
	if p.tree.Node(id).Kind != Operator {
		panic(fmt.Sprintf("plan: cannot relocate %v node %d", p.tree.Node(id).Kind, id))
	}
	p.loc[id] = h
}

// Clone returns an independent copy.
func (p *Placement) Clone() *Placement {
	loc := make([]netmodel.HostID, len(p.loc))
	copy(loc, p.loc)
	return &Placement{tree: p.tree, loc: loc}
}

// Equal reports whether two placements assign every node identically.
func (p *Placement) Equal(q *Placement) bool {
	if p.tree != q.tree {
		return false
	}
	for i := range p.loc {
		if p.loc[i] != q.loc[i] {
			return false
		}
	}
	return true
}

// Locations returns a copy of the full node→host assignment.
func (p *Placement) Locations() []netmodel.HostID {
	out := make([]netmodel.HostID, len(p.loc))
	copy(out, p.loc)
	return out
}

// String renders operator locations compactly, e.g. "op8@h2 op9@h2 op10@h8".
func (p *Placement) String() string {
	var parts []string
	for _, op := range p.tree.operators {
		parts = append(parts, fmt.Sprintf("op%d@h%d", op, p.loc[op]))
	}
	return strings.Join(parts, " ")
}
