package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"time"

	"wadc/internal/core"
	"wadc/internal/dataflow"
	"wadc/internal/experiment"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/tenant"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"paper-sweep", "shared-wan", "faulty-sweep"}

// scale is the fixed size of one round of a workload. Every round of a run
// repeats the same ops on the same inputs, so every round has the same
// output digest.
type scale struct {
	configs     int   // sweeps: network configurations (4 core.Run cells each)
	iters       int   // sweeps: images per server per cell
	populations int   // shared-wan: core.RunMulti populations
	tenants     int   // shared-wan: tenants per population
	tenantIters int   // shared-wan: iterations per tenant
	tenantBytes int64 // shared-wan: mean image size
	setupReps   int   // set-up repetitions; setup_s is their median
}

// fullScale is the size the benchmark measures and the golden digests pin.
var fullScale = scale{
	configs: 40, iters: 180,
	populations: 64, tenants: 10, tenantIters: 2, tenantBytes: 15 * workload.DefaultMeanBytes,
	setupReps: 7,
}

const (
	numServers  = 8   // servers per cell, and hosts in each shared WAN
	arrivalRate = 5.0 // shared-wan tenant arrivals per simulated second
)

// inputs is everything set-up generates from the seed.
type inputs struct {
	seed        int64
	assignments []*experiment.Assignment
	populations [][]tenant.Spec
}

// setupTimes is the host time of one set-up, by call.
type setupTimes struct {
	pool, assign, population time.Duration
}

func (t setupTimes) total() time.Duration { return t.pool + t.assign + t.population }

// setup generates a workload's inputs from the seed: the study trace pool,
// one network assignment per configuration (or per population), and on
// shared-wan the tenant populations. It records one span per call.
func setup(name string, seed int64, sc scale, spans *spanLog) (inputs, setupTimes) {
	in := inputs{seed: seed}
	var st setupTimes
	root := spans.begin("setup", -1, -1)
	t0 := time.Now()
	id := spans.begin("trace.NewStudyPool", root, -1)
	pool := trace.NewStudyPool(seed)
	spans.end(id)
	t1 := time.Now()
	configs := sc.configs
	if name == "shared-wan" {
		configs = sc.populations
	}
	id = spans.begin("experiment.GenerateAssignments", root, -1)
	in.assignments = experiment.GenerateAssignments(pool, configs, numServers, seed)
	spans.end(id)
	t2 := time.Now()
	st.pool, st.assign = t1.Sub(t0), t2.Sub(t1)
	if name == "shared-wan" {
		id = spans.begin("tenant.Population", root, -1)
		for p := 0; p < sc.populations; p++ {
			in.populations = append(in.populations, tenant.Population(tenant.PopulationConfig{
				N:           sc.tenants,
				ArrivalRate: arrivalRate,
				Seed:        opSeed(seed, p),
				NumServers:  numServers,
				Iterations:  sc.tenantIters,
				Algorithms:  []string{"global"},
			}))
		}
		spans.end(id)
		st.population = time.Since(t2)
	}
	spans.end(root)
	return in, st
}

// opSeed is the per-configuration run seed cmd/experiments uses, so every
// algorithm of a configuration faces the same workload.
func opSeed(seed int64, config int) int64 { return seed*7919 + int64(config) }

// opResult is what one op (a core.Run cell or a core.RunMulti population)
// produced.
type opResult struct {
	err    error
	digest []byte
	want   int // images the op was asked to deliver
	c      counts
	perf   *obs.Report // the op's region-clock report in traced rounds
}

// counts are the exact per-layer counters read from public result fields.
type counts struct {
	images                            int
	events                            int64
	probes, passive                   int64
	hitRateSum                        float64
	hitRateN                          int
	decisions, candidates, decMoves   int
	transfers, bytes                  int64
	moves, switches, forwarded        int
	retries, reinstantiations         int
	crashes                           int
	dropped, duplicated, transfersCut int64
}

func (c *counts) add(o counts) {
	c.images += o.images
	c.events += o.events
	c.probes += o.probes
	c.passive += o.passive
	c.hitRateSum += o.hitRateSum
	c.hitRateN += o.hitRateN
	c.decisions += o.decisions
	c.candidates += o.candidates
	c.decMoves += o.decMoves
	c.transfers += o.transfers
	c.bytes += o.bytes
	c.moves += o.moves
	c.switches += o.switches
	c.forwarded += o.forwarded
	c.retries += o.retries
	c.reinstantiations += o.reinstantiations
	c.crashes += o.crashes
	c.dropped += o.dropped
	c.duplicated += o.duplicated
	c.transfersCut += o.transfersCut
}

func (c *counts) addFlow(r *dataflow.Result) {
	c.images += len(r.Arrivals)
	c.moves += r.Moves
	c.switches += r.Switches
	c.forwarded += r.Forwarded
	c.retries += r.Retries
	c.reinstantiations += r.Reinstantiations
}

func (c *counts) addDecisions(d placement.DecisionStats) {
	c.decisions += d.Decisions
	c.candidates += d.Candidates
	c.decMoves += d.Moves
}

// opTrace is the traced run's per-op hook: the span log, the op's own span
// and the region-clock recorder attached to its kernel. It is nil in
// untraced rounds.
type opTrace struct {
	spans *spanLog
	span  int
	op    int
	rec   *obs.Recorder
}

// opFunc runs one op of a round.
type opFunc func(tr *opTrace) opResult

// ops builds a workload's ops over its inputs.
func ops(name string, in inputs, sc scale) []opFunc {
	if name == "shared-wan" {
		return multiOps(in, sc)
	}
	return sweepOps(in, sc, name == "faulty-sweep")
}

// sweepOps is Figure 6 at sc.configs configurations: every configuration
// runs all four algorithms, one core.Run cell each.
func sweepOps(in inputs, sc scale, faulty bool) []opFunc {
	wl := workload.Config{
		ImagesPerServer: sc.iters,
		MeanBytes:       workload.DefaultMeanBytes,
		SpreadFrac:      workload.DefaultSpreadFrac,
	}
	opts := experiment.Options{Period: placement.DefaultPeriod}
	var out []opFunc
	for c, a := range in.assignments {
		for _, alg := range experiment.StandardAlgorithms() {
			out = append(out, func(tr *opTrace) opResult {
				seed := opSeed(in.seed, c)
				cfg := core.RunConfig{
					Seed:       seed,
					NumServers: numServers,
					Shape:      core.CompleteBinaryTree,
					Links:      a.LinkFn(),
					Policy:     alg.New(opts, seed),
					Workload:   wl,
					Iterations: sc.iters,
				}
				if faulty {
					cfg.Faults = experiment.FaultConfigAt(1)
				}
				if tr != nil {
					cfg.Policy = tracedPolicy{Policy: cfg.Policy, tr: tr}
					cfg.Perf = tr.rec
				}
				res, err := core.Run(cfg)
				r := opResult{err: err, want: sc.iters}
				if err != nil {
					return r
				}
				r.digest = digestRun(&res)
				r.perf = res.Perf
				r.c = counts{
					events:       res.KernelEvents,
					probes:       res.Probes,
					passive:      res.PassiveMeasurements,
					hitRateSum:   res.CacheHitRate,
					hitRateN:     1,
					transfers:    res.NetworkTransfers,
					bytes:        res.BytesMoved,
					crashes:      res.CrashesFired,
					dropped:      res.MessagesDropped,
					duplicated:   res.MessagesDuplicated,
					transfersCut: res.TransfersCut,
				}
				r.c.addFlow(&res.Result)
				r.c.addDecisions(res.Decisions)
				return r
			})
		}
	}
	return out
}

// multiOps is the shared-WAN scenario: each op is one core.RunMulti
// population of global-policy tenants on its own network configuration.
func multiOps(in inputs, sc scale) []opFunc {
	wl := workload.Config{
		ImagesPerServer: sc.tenantIters,
		MeanBytes:       sc.tenantBytes,
		SpreadFrac:      workload.DefaultSpreadFrac,
	}
	var out []opFunc
	for p, specs := range in.populations {
		out = append(out, func(tr *opTrace) opResult {
			cfg := core.MultiConfig{
				Seed:       opSeed(in.seed, p),
				NumServers: numServers,
				Links:      in.assignments[p].LinkFn(),
				Tenants:    specs,
				Workload:   wl,
			}
			if tr != nil {
				cfg.Perf = tr.rec
			}
			res, err := core.RunMulti(cfg)
			r := opResult{err: err, want: len(specs) * sc.tenantIters}
			if err != nil {
				return r
			}
			switch {
			case res.Aborted > 0:
				r.err = fmt.Errorf("%d of %d tenants aborted", res.Aborted, len(specs))
			case res.Completed != len(specs):
				r.err = fmt.Errorf("%d of %d tenants completed", res.Completed, len(specs))
			case res.PendingEvents != 0:
				r.err = fmt.Errorf("%d kernel events pending after teardown", res.PendingEvents)
			}
			r.digest = digestMulti(&res)
			r.perf = res.Perf
			r.c = counts{
				events:       res.KernelEvents,
				transfers:    res.NetworkTransfers,
				bytes:        res.BytesMoved,
				crashes:      res.CrashesFired,
				dropped:      res.MessagesDropped,
				duplicated:   res.MessagesDuplicated,
				transfersCut: res.TransfersCut,
			}
			for i := range res.Tenants {
				r.c.addFlow(&res.Tenants[i].Result)
				r.c.addDecisions(res.Tenants[i].Decisions)
			}
			return r
		})
	}
	return out
}

// tracedPolicy wraps a sweep cell's policy to record a span around its
// InitialPlacement. It forwards DecisionAudited, so core.Run still reports
// the wrapped policy's decision counts (zero for policies that keep none).
type tracedPolicy struct {
	placement.Policy
	tr *opTrace
}

// initialPlacementSpan names the spans tracedPolicy records.
const initialPlacementSpan = "placement.InitialPlacement"

// InitialPlacement implements placement.Policy.
func (w tracedPolicy) InitialPlacement(p *sim.Proc, x *placement.Instance) *plan.Placement {
	id := w.tr.spans.begin(initialPlacementSpan, w.tr.span, w.tr.op)
	defer w.tr.spans.end(id)
	return w.Policy.InitialPlacement(p, x)
}

// DecisionStats implements placement.DecisionAudited.
func (w tracedPolicy) DecisionStats() placement.DecisionStats {
	if da, ok := w.Policy.(placement.DecisionAudited); ok {
		return da.DecisionStats()
	}
	return placement.DecisionStats{}
}

// digester hashes simulated outputs in a fixed binary encoding. Host-time
// values and KernelEvents are left out: the first varies run to run, and a
// faster kernel may legitimately schedule fewer events.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	_, _ = io.WriteString(d.h, s) // hash writes never fail
}

func (d *digester) sum() []byte { return d.h.Sum(nil) }

func (d *digester) flow(r *dataflow.Result) {
	d.int(int64(len(r.Arrivals)))
	for _, t := range r.Arrivals {
		d.int(int64(t))
	}
	d.int(int64(r.Completion))
	d.int(int64(r.Moves))
	d.int(int64(r.Switches))
	d.int(int64(r.Forwarded))
	d.int(int64(len(r.MoveLog)))
	for _, m := range r.MoveLog {
		d.int(int64(m.At))
		d.int(int64(m.Op))
		d.int(int64(m.From))
		d.int(int64(m.To))
		d.bool(m.Barrier)
	}
	d.int(int64(r.Retries))
	d.int(int64(r.Reinstantiations))
	d.int(int64(r.Invalidated))
}

func (d *digester) decisions(s placement.DecisionStats) {
	d.int(int64(s.Decisions))
	d.int(int64(s.Candidates))
	d.int(int64(s.Moves))
}

func (d *digester) placement(p *plan.Placement) {
	locs := p.Locations()
	d.int(int64(len(locs)))
	for _, h := range locs {
		d.int(int64(h))
	}
}

func (d *digester) faults(crashes int, dropped, duplicated, cut int64) {
	d.int(int64(crashes))
	d.int(dropped)
	d.int(duplicated)
	d.int(cut)
}

// digestRun hashes one core.Run cell's simulated outputs.
func digestRun(r *core.RunResult) []byte {
	d := newDigester()
	d.str(r.Algorithm)
	d.flow(&r.Result)
	d.faults(r.CrashesFired, r.MessagesDropped, r.MessagesDuplicated, r.TransfersCut)
	d.int(r.Probes)
	d.int(r.PassiveMeasurements)
	d.int(r.NetworkTransfers)
	d.int(r.BytesMoved)
	d.decisions(r.Decisions)
	d.placement(r.FinalPlacement)
	return d.sum()
}

// digestMulti hashes one core.RunMulti population's simulated outputs: the
// same per tenant (MultiResult exposes no monitor counters), plus the
// per-tenant traffic and the pending-event count.
func digestMulti(r *core.MultiResult) []byte {
	d := newDigester()
	d.int(int64(len(r.Tenants)))
	for i := range r.Tenants {
		t := &r.Tenants[i]
		d.int(int64(t.Spec.ID))
		d.bool(t.Completed)
		d.bool(t.Aborted)
		d.int(int64(t.ArrivedAt))
		d.int(int64(t.DepartedAt))
		d.int(int64(t.Delivered))
		d.flow(&t.Result)
		d.decisions(t.Decisions)
		if t.FinalPlacement != nil {
			d.placement(t.FinalPlacement)
		}
	}
	d.int(int64(len(r.TenantTraffic)))
	for _, tt := range r.TenantTraffic {
		d.int(int64(tt.Tenant))
		d.int(tt.Transfers)
		d.int(tt.Bytes)
	}
	d.faults(r.CrashesFired, r.MessagesDropped, r.MessagesDuplicated, r.TransfersCut)
	d.int(r.NetworkTransfers)
	d.int(r.BytesMoved)
	d.int(int64(r.PendingEvents))
	return d.sum()
}

// roundDigest combines the op digests in op order, so it does not depend on
// which worker ran which op or in what order they finished.
func roundDigest(results []opResult) string {
	d := newDigester()
	for _, r := range results {
		if r.err != nil {
			d.str("error: " + r.err.Error())
			continue
		}
		d.h.Write(r.digest)
	}
	return hex.EncodeToString(d.sum())
}
