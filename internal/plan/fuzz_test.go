package plan

import (
	"slices"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/trace"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros, so every
// input decodes to some instance.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeEvaluatorInput reads an instance in the shape randomInstance draws:
// a complete or left-deep tree of 2-16 servers, up to 12 hosts, a cost
// model, a placement of every node, and a bandwidth per ordered host pair
// from tieBandwidths, so exact ties and zero bandwidths occur. The bytes
// are, in order: shape, servers, hosts, model, one host per server, the
// client's host, one host per operator, then the bandwidths row by row.
func decodeEvaluatorInput(data []byte) (*Placement, CostModel, *queryLog) {
	in := fuzzBytes(data)
	leftDeep := in.next()%2 == 1
	s := in.next()%15 + 2
	nHosts := in.next()%12 + 1
	m := tieModels[in.next()%len(tieModels)]
	tr := CompleteBinary(s)
	if leftDeep {
		tr = LeftDeep(s)
	}
	tr.Validate()
	sh := make([]netmodel.HostID, s)
	for i := range sh {
		sh[i] = netmodel.HostID(in.next() % nHosts)
	}
	p := NewPlacement(tr, sh, netmodel.HostID(in.next()%nHosts))
	for _, op := range tr.Operators() {
		p.SetLoc(op, netmodel.HostID(in.next()%nHosts))
	}
	q := &queryLog{n: nHosts, bw: make([]trace.Bandwidth, nHosts*nHosts)}
	for i := range q.bw {
		q.bw[i] = tieBandwidths[in.next()%len(tieBandwidths)]
	}
	return p, m, q
}

// FuzzEvaluator is the differential check of the dense evaluator on decoded
// instances. Three evaluations of one placement must agree: a fresh
// evaluator, an evaluator that scored it against a different snapshot and
// was then Reset to this one, and the map-based referenceEvaluate. Every
// field is compared with == (BottleneckHost only between the two
// evaluators, since the reference breaks load ties in map order), and so is
// the sequence of links each first queries.
func FuzzEvaluator(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, m, q := decodeEvaluatorInput(data)
		hosts := make([]netmodel.HostID, q.n)
		for i := range hosts {
			hosts[i] = netmodel.HostID(i)
		}

		want := referenceEvaluate(m, p, q.fn)
		wantQueries := q.firstQueries()

		q.calls = nil
		fresh := m.NewEvaluator(p, hosts, q.fn).Evaluate(p)
		freshQueries := q.firstQueries()

		// Every link of the other snapshot differs from this one's, so an
		// edge cost that survived the Reset would change the score.
		other := &queryLog{n: q.n, bw: make([]trace.Bandwidth, len(q.bw))}
		for i, v := range q.bw {
			other.bw[i] = 2*v + 7
		}
		ev := m.NewEvaluator(p, hosts, other.fn)
		ev.Evaluate(p)
		q.calls = nil
		ev.Reset(q.fn)
		reset := ev.Evaluate(p)
		resetQueries := q.firstQueries()

		if !sameEvaluation(fresh, want) {
			t.Errorf("fresh evaluator %+v, reference %+v", fresh, want)
		}
		if !sameEvaluation(reset, fresh) || reset.BottleneckHost != fresh.BottleneckHost {
			t.Errorf("reset evaluator %+v, fresh %+v", reset, fresh)
		}
		if !slices.Equal(freshQueries, wantQueries) {
			t.Errorf("fresh evaluator first queried %v, reference %v", freshQueries, wantQueries)
		}
		if !slices.Equal(resetQueries, wantQueries) {
			t.Errorf("reset evaluator first queried %v, reference %v", resetQueries, wantQueries)
		}
	})
}
