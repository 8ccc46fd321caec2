package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/trace"
)

func uniformBW(bw trace.Bandwidth) plan.BandwidthFn {
	return func(a, b netmodel.HostID) trace.Bandwidth { return bw }
}

func TestOneShotOptimizeFindsDetour(t *testing.T) {
	// Server 0's direct link to the client is terrible; via server 1 it is
	// fast. The optimiser must move the operator off the client.
	tree := plan.CompleteBinary(2)
	sh, ch := plan.DefaultHostAssignment(2)
	initial := plan.NewPlacement(tree, sh, ch)
	bw := func(a, b netmodel.HostID) trace.Bandwidth {
		if (a == 0 && b == 2) || (a == 2 && b == 0) {
			return 1024 // 1 KB/s
		}
		return 1024 * 1024
	}
	model := plan.DefaultCostModel(128 * 1024)
	hosts := []netmodel.HostID{0, 1, 2}
	got := OneShotOptimizeAudited(model.NewEvaluator(initial, hosts, nil), initial, hosts, bw, Decision{})
	op := tree.Operators()[0]
	if got.Loc(op) != 1 {
		t.Errorf("operator placed at h%d, want h1 (detour around slow link)", got.Loc(op))
	}
	if model.Evaluate(got, bw).Cost >= model.Evaluate(initial, bw).Cost {
		t.Error("optimised placement not cheaper")
	}
	// Input must not be mutated.
	if initial.Loc(op) != ch {
		t.Error("OneShotOptimizeAudited mutated its input")
	}
}

func TestOneShotOptimizeStableWhenOptimal(t *testing.T) {
	// With a uniform network, download-all is already optimal (any remote
	// placement adds transfers); the optimiser must return an equally cheap
	// placement and terminate.
	tree := plan.CompleteBinary(4)
	sh, ch := plan.DefaultHostAssignment(4)
	initial := plan.NewPlacement(tree, sh, ch)
	model := plan.DefaultCostModel(128 * 1024)
	hosts := []netmodel.HostID{0, 1, 2, 3, 4}
	got := OneShotOptimizeAudited(model.NewEvaluator(initial, hosts, nil), initial, hosts, uniformBW(64*1024), Decision{})
	if a, b := model.Evaluate(got, uniformBW(64*1024)).Cost, model.Evaluate(initial, uniformBW(64*1024)).Cost; a > b {
		t.Errorf("optimiser made things worse: %v > %v", a, b)
	}
}

// Property: the one-shot optimiser never increases the critical-path cost,
// for random symmetric bandwidth matrices and both tree shapes.
func TestOneShotNeverWorseProperty(t *testing.T) {
	prop := func(seed int64, servers uint8, leftDeep bool) bool {
		s := int(servers%7) + 2
		var tree *plan.Tree
		if leftDeep {
			tree = plan.LeftDeep(s)
		} else {
			tree = plan.CompleteBinary(s)
		}
		sh, ch := plan.DefaultHostAssignment(s)
		initial := plan.NewPlacement(tree, sh, ch)
		rng := rand.New(rand.NewSource(seed))
		bwMap := map[[2]netmodel.HostID]trace.Bandwidth{}
		bw := func(a, b netmodel.HostID) trace.Bandwidth {
			k := [2]netmodel.HostID{a, b}
			if a > b {
				k = [2]netmodel.HostID{b, a}
			}
			v, ok := bwMap[k]
			if !ok {
				v = trace.Bandwidth(1024 * (1 + rng.Float64()*200))
				bwMap[k] = v
			}
			return v
		}
		model := plan.DefaultCostModel(128 * 1024)
		hosts := make([]netmodel.HostID, s+1)
		for i := range hosts {
			hosts[i] = netmodel.HostID(i)
		}
		got := OneShotOptimizeAudited(model.NewEvaluator(initial, hosts, nil), initial, hosts, bw, Decision{})
		return model.Evaluate(got, bw).Cost <= model.Evaluate(initial, bw).Cost+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPolicyNames(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{DownloadAll{}, "download-all"},
		{OneShot{}, "one-shot"},
		{&Global{}, "global"},
		{&Local{}, "local"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestInstanceHostDeduplication(t *testing.T) {
	tree := plan.CompleteBinary(2)
	// Both servers on the same host.
	inst := NewInstance(nil, nil, tree, []netmodel.HostID{5, 5}, 9, plan.CostModel{})
	if len(inst.Hosts) != 2 {
		t.Errorf("Hosts = %v, want [5 9]", inst.Hosts)
	}
}

func TestDownloadAllPolicy(t *testing.T) {
	tree := plan.CompleteBinary(4)
	sh, ch := plan.DefaultHostAssignment(4)
	inst := NewInstance(nil, nil, tree, sh, ch, plan.CostModel{})
	pl := DownloadAll{}.InitialPlacement(nil, inst)
	for _, op := range tree.Operators() {
		if pl.Loc(op) != ch {
			t.Errorf("operator %d at h%d, want client", op, pl.Loc(op))
		}
	}
	DownloadAll{}.Attach(inst, nil) // must be a no-op, not panic
}

func TestLocalPathCost(t *testing.T) {
	m := plan.CostModel{DataBytes: 1000}
	bw := uniformBW(1000)
	// At the consumer's host both inputs are remote and serialise through
	// the single NIC: 1s + 1s.
	atCons := localPathCost(m, 0, 1, 2, 2, bw)
	// At producer A's host one input is local: in from B (1s) + out (1s).
	atProdA := localPathCost(m, 0, 1, 0, 2, bw)
	if atCons != 2.0 {
		t.Errorf("atCons = %v", atCons)
	}
	if atProdA != 2.0 {
		t.Errorf("atProdA = %v", atProdA)
	}
	// A neutral fourth host pays all three edges.
	if c := localPathCost(m, 0, 1, 3, 2, bw); c != 3.0 {
		t.Errorf("atOther = %v", c)
	}
}

func TestDedupeHosts(t *testing.T) {
	got := dedupeHosts([]netmodel.HostID{3, 1, 3, 2, 1})
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("dedupe = %v", got)
	}
}

func TestAddRandomExtras(t *testing.T) {
	l := &Local{Extra: 2, rng: rand.New(rand.NewSource(1))}
	all := []netmodel.HostID{0, 1, 2, 3, 4, 5}
	cand := []netmodel.HostID{0, 1}
	got := l.addRandomExtras(cand, all)
	if len(got) != 4 {
		t.Fatalf("extras = %v", got)
	}
	seen := map[netmodel.HostID]bool{}
	for _, h := range got {
		if seen[h] {
			t.Errorf("duplicate host %d in %v", h, got)
		}
		seen[h] = true
	}
	// Extra larger than remaining: capped.
	l2 := &Local{Extra: 99, rng: rand.New(rand.NewSource(1))}
	if got := l2.addRandomExtras(cand, all); len(got) != len(all) {
		t.Errorf("capped extras = %v", got)
	}
	// Extra = 0: unchanged.
	l3 := &Local{}
	if got := l3.addRandomExtras(cand, all); len(got) != 2 {
		t.Errorf("no-extra = %v", got)
	}
}
