package plan

import "fmt"

// GreedyBinary builds a combination tree by greedy agglomerative pairing:
// repeatedly merge the two frontier groups with the cheapest connecting cost
// (single linkage over pairCost, typically 1/bandwidth between the servers'
// hosts).
//
// This explores the *ordering* half of the paper's planning problem — "the
// planning procedure decides: (1) the order in which data from different
// sources is to be combined, and (2) the location at which each of the
// combination operations is to be performed" — using the same planning-time
// bandwidth knowledge the one-shot placement uses. It is an extension beyond
// the paper's two fixed orders (complete binary and left-deep).
func GreedyBinary(numServers int, pairCost func(a, b int) float64) *Tree {
	if numServers < 2 {
		panic(fmt.Sprintf("plan: need at least 2 servers, got %d", numServers))
	}
	if pairCost == nil {
		panic("plan: GreedyBinary requires a pairCost function")
	}
	b := &builder{}
	type cluster struct {
		node    NodeID
		members []int // server indices
	}
	clusters := make([]cluster, numServers)
	for i := range clusters {
		clusters[i] = cluster{node: b.addNode(Server, i), members: []int{i}}
	}
	// Single-linkage cost between two clusters.
	linkCost := func(x, y cluster) float64 {
		best := pairCost(x.members[0], y.members[0])
		for _, a := range x.members {
			for _, c := range y.members {
				if v := pairCost(a, c); v < best {
					best = v
				}
			}
		}
		return best
	}
	for len(clusters) > 1 {
		bi, bj, bestCost := 0, 1, linkCost(clusters[0], clusters[1])
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if c := linkCost(clusters[i], clusters[j]); c < bestCost {
					bi, bj, bestCost = i, j, c
				}
			}
		}
		merged := cluster{
			node:    b.combine(clusters[bi].node, clusters[bj].node),
			members: append(append([]int{}, clusters[bi].members...), clusters[bj].members...),
		}
		next := clusters[:0]
		for i, c := range clusters {
			if i != bi && i != bj {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	return b.finish(clusters[0].node)
}
