package tenant

import (
	"reflect"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
)

func TestPopulationReproducible(t *testing.T) {
	cfg := PopulationConfig{N: 50, ArrivalRate: 3, Seed: 42, NumServers: 4, Iterations: 8}
	a := Population(cfg)
	b := Population(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different populations")
	}
	cfg.Seed = 43
	c := Population(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestPopulationShape(t *testing.T) {
	specs := Population(PopulationConfig{N: 12, ArrivalRate: 1, Seed: 7, NumServers: 3, Iterations: 5})
	if len(specs) != 12 {
		t.Fatalf("got %d specs", len(specs))
	}
	seen := make(map[int64]bool)
	for i, sp := range specs {
		if sp.ID != int32(i+1) {
			t.Errorf("spec %d has ID %d", i, sp.ID)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("spec %d invalid: %v", i, err)
		}
		if sp.Algorithm != DefaultAlgorithms[i%len(DefaultAlgorithms)] {
			t.Errorf("spec %d algorithm %q breaks the default cycle", i, sp.Algorithm)
		}
		if i > 0 && specs[i].ArriveAt < specs[i-1].ArriveAt {
			t.Errorf("arrivals out of order at %d: %v < %v", i, specs[i].ArriveAt, specs[i-1].ArriveAt)
		}
		if seen[sp.Seed] {
			t.Errorf("spec %d reuses seed %d", i, sp.Seed)
		}
		seen[sp.Seed] = true
	}
}

// TestPopulationArrivalRate: the open-loop process must respect its rate —
// the empirical mean interarrival gap of a large population converges on
// 1/rate.
func TestPopulationArrivalRate(t *testing.T) {
	const n, rate = 5000, 4.0
	specs := Population(PopulationConfig{N: n, ArrivalRate: rate, Seed: 1, NumServers: 2, Iterations: 1})
	last := specs[n-1].ArriveAt.Seconds()
	mean := last / float64(n-1)
	want := 1 / rate
	if mean < want*0.9 || mean > want*1.1 {
		t.Errorf("mean interarrival %.4fs, want %.4fs ±10%%", mean, want)
	}
}

func TestPopulationZeroRate(t *testing.T) {
	specs := Population(PopulationConfig{N: 5, Seed: 1, NumServers: 2, Iterations: 1})
	for _, sp := range specs {
		if sp.ArriveAt != 0 {
			t.Errorf("tenant %d arrives at %v with no arrival rate", sp.ID, sp.ArriveAt)
		}
	}
}

func TestServerHostsDeterministic(t *testing.T) {
	sp := Spec{ID: 3, Seed: 99, NumServers: 4, Iterations: 1, Algorithm: "global"}
	a, err := sp.ServerHosts(10)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sp.ServerHosts(10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec drew different hosts")
	}
	if len(a) != 4 {
		t.Fatalf("drew %d hosts", len(a))
	}
	seen := make(map[netmodel.HostID]bool)
	for i, h := range a {
		if int(h) < 0 || int(h) >= 10 {
			t.Errorf("host %d outside pool", h)
		}
		if seen[h] {
			t.Errorf("duplicate host %d", h)
		}
		seen[h] = true
		if i > 0 && a[i] <= a[i-1] {
			t.Errorf("hosts not sorted: %v", a)
		}
	}
	sp2 := sp
	sp2.ID = 4
	c, _ := sp2.ServerHosts(10)
	if reflect.DeepEqual(a, c) {
		t.Error("different tenant IDs drew identical host sets (seed mixing broken)")
	}
}

func TestServerHostsPinned(t *testing.T) {
	sp := Spec{ID: 1, Seed: 1, NumServers: 2, Iterations: 1, Algorithm: "one-shot",
		Servers: []netmodel.HostID{1, 3}}
	hosts, err := sp.ServerHosts(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hosts, []netmodel.HostID{1, 3}) {
		t.Fatalf("pinned hosts not honoured: %v", hosts)
	}
	sp.Servers = []netmodel.HostID{1, 9}
	if _, err := sp.ServerHosts(4); err == nil {
		t.Error("out-of-pool pin accepted")
	}
	sp.Servers = []netmodel.HostID{1}
	if _, err := sp.ServerHosts(4); err == nil {
		t.Error("pin count mismatch accepted")
	}
}

func TestServerHostsOversubscribed(t *testing.T) {
	sp := Spec{ID: 1, Seed: 1, NumServers: 8, Iterations: 1, Algorithm: "one-shot"}
	if _, err := sp.ServerHosts(4); err == nil {
		t.Error("8 servers from a pool of 4 accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{ID: 1, Seed: 1, NumServers: 2, Iterations: 1, Algorithm: "local"}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	idle := Spec{ID: 2, NumServers: 2, Algorithm: "download-all", Idle: true}
	if err := idle.Validate(); err != nil {
		t.Fatalf("idle spec rejected: %v", err)
	}
	bad := []Spec{
		{ID: 0, NumServers: 2, Iterations: 1, Algorithm: "local"},
		{ID: -1, NumServers: 2, Iterations: 1, Algorithm: "local"},
		{ID: 1, NumServers: 1, Iterations: 1, Algorithm: "local"},
		{ID: 1, NumServers: 2, Iterations: 0, Algorithm: "local"},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sp)
		}
	}
}

func TestPopulationArrivalTimesAreSimTimes(t *testing.T) {
	specs := Population(PopulationConfig{N: 3, ArrivalRate: 0.5, Seed: 2, NumServers: 2, Iterations: 1})
	var prev sim.Time
	for _, sp := range specs[1:] {
		if sp.ArriveAt <= prev {
			t.Errorf("tenant %d gap collapsed: %v after %v", sp.ID, sp.ArriveAt, prev)
		}
		prev = sp.ArriveAt
	}
}
