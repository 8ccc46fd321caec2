// Command wadcbench is the simulator's benchmark: one seeded command that
// runs a workload through the public entry points (experiment.
// GenerateAssignments, core.Run, core.RunMulti, tenant.Population), checks
// the simulated outputs against a digest, and prints every metric by name
// with its unit. BENCHMARK.json at the module root declares it.
//
//	bash wadcbench/run.sh --workload paper-sweep --seed 1 --seconds 35 --trace 0
//
// run.sh builds the command into .bench_build/ (with the Go build cache
// there too) and runs it from the module root. Later performance issues
// cite the workload and metric names defined here.
//
// # Run structure
//
// Set-up generates every input from --seed: the study trace pool, the
// network assignments and, on shared-wan, the tenant populations. It runs
// seven times; setup_s is the median. The timed phase then runs rounds back
// to back until another round would overrun --seconds (at least one). A
// round runs every op of the workload once on a closed loop of
// GOMAXPROCS (nproc by default) workers: each worker takes the next op when
// its previous one finishes, so at most nproc simulations are in flight.
// Arrivals inside a simulation are a model input, not host load. Every
// round repeats the same ops on the same inputs.
//
// # Workloads
//
// paper-sweep is Figure 6 at 40 configurations: each seeded network
// configuration runs all four algorithms (download-all, one-shot, global,
// local), so 160 core.Run cells per round. Each cell has 8 servers and a
// client, 180 images per server (128 KB mean), a complete binary tree, the
// 10-minute period and no faults. It is the paper's main experiment and most
// of what cmd/experiments runs. Time goes to the data pipeline:
// monitor.(*Cache).freshest, reached from netmodel.(*Network).Send, makes
// monitor the largest CPU share, and placement is about 2% of CPU.
// Pipeline, monitor, kernel and allocation work shows here; optimiser work
// should not.
//
// shared-wan is the multi-tenant scenario behind the ROADMAP's 92.9%
// placement share (combine -tenants 1000 -arrival-rate 5), scaled down: 64
// core.RunMulti populations per round, each on its own seeded 8-host WAN,
// each of 10 global-policy tenants (8 servers, 2 iterations, 1.875 MB mean
// images) arriving as a Poisson process at 5 per simulated second.
// OneShotOptimizeAudited and plan.CostModel.Evaluate are about 70% of CPU
// and the pipeline is small, so an incremental optimiser (ROADMAP item 2)
// shows here and not on paper-sweep. The cost of a population is set by how
// long its tenants stay resident, which depends on the bandwidth of its
// network draw and varies about 40% from draw to draw; two populations of
// 150 tenants per round therefore varied 60% from seed to seed. Many small
// populations average that out. Ten tenants with 15 times the image size
// keep the global placer's decision density (about 12 decisions per
// delivered image) at what 150 tenants with 128 KB images give, since a
// tenant's residence grows with both.
//
// faulty-sweep is paper-sweep's cells under experiment.FaultConfigAt(1): 2
// host crashes, 2 link outages, 2% message drop and 1% duplication per run.
// The dataflow and netmodel layers run their resilient loops: demand
// retries, operator re-instantiation, forwarding and cut transfers. The
// same 28,800 images cost about 47% more kernel events. A pipeline change
// that speeds the strict loops but slows recovery shows here.
//
// # Outputs and correctness
//
// Readable lines come first: one per round, the round's output digest, and
// one per metric. The last line is one JSON object with the keys correct,
// attempted (ops run), failed (ops that returned an error, did not
// complete, or had an aborted tenant) and metrics.
//
// The digest is a SHA-256 over every op's simulated outputs in op order:
// arrival times and completion; moves (with the move log), switches and
// forwards; recovery and fault counters; monitor probes and passive
// measurements (core.Run only: MultiResult exposes no monitor counters);
// transfers and bytes moved; decision counts; the final placement; on
// shared-wan the same per tenant plus per-tenant traffic and the pending
// event count, which must be 0. Host times and KernelEvents are left out: a
// faster kernel may schedule fewer events.
//
// Every run checks that each op completed and delivered every requested
// image, and that every round has the same digest. golden.json pins the
// digests of the default seed (1) and one held-out seed (4242) for every
// workload; a mismatch prints the metrics and exits 1. Any other seed is
// reported as unverified, with the invariants checked only. To regenerate
// golden.json, run each workload at seeds 1 and 4242 and copy the printed
// digest lines.
//
// # End-to-end metrics (--trace 0)
//
// All are host measurements of the untraced run.
//
//	name            unit      better  definition
//	setup_s         s         lower   median host time of one set-up (pool, assignments, populations)
//	iters_per_s     images/s  higher  median over rounds of images delivered per wall second
//	cpu_s           s         lower   median over rounds of process user+sys CPU time per round
//	peak_rss_mb     MB        lower   process VmHWM at exit
//	completed_frac  ratio     higher  ops that completed, over ops attempted
//
// cpu_s counts GC and scheduler spin. completed_frac stands in for the
// failed fraction, which is normally 0 and so cannot carry a relative
// bound; failed_frac is reported as a per-layer metric.
//
// On a 2-vCPU VM shared with other tenants, rounds of one run vary by about
// 7% and the host's speed drifts by up to a third over minutes, so every
// host-time metric is a median over rounds and the bounds in BENCHMARK.json
// are wide.
//
// # Per-layer metrics (--trace 1)
//
// Counts are exact simulated outputs per round, read from public result
// fields; they repeat exactly for a seed. Times and shares are host
// measurements of the traced rounds; runtime counters are host measurements
// of the untraced rounds of the same run.
//
//	trace.pool_s, experiment.assign_s,  s      median host time of NewStudyPool, GenerateAssignments
//	tenant.population_s                        and Population over the set-up repetitions (0 on sweeps)
//	monitor.probes, monitor.passive     count  on-demand probes, passive measurements (0 on shared-wan)
//	monitor.cache_hit_rate              ratio  mean per-cell cache hit rate (0 on shared-wan)
//	placement.decisions, .candidates,   count  DecisionStats summed over cells or tenants
//	placement.moves
//	placement.initial_ms                ms     mean host time of one InitialPlacement (sweeps; 0 on shared-wan)
//	sim.events                          count  kernel events scheduled (KernelEvents)
//	sim.events_per_s                    1/s    sim.events per untraced round wall second
//	netmodel.transfers                  count  network transfers
//	netmodel.mb_moved                   MB     bytes moved / 1e6
//	dataflow.iters                      count  images delivered; must equal the images requested
//	dataflow.moves, .switches,          count  dataflow.Result counters
//	.forwarded, .retries, .reinstantiations
//	faults.crashes, .dropped,           count  fault-injection accounting
//	.duplicated, .transfers_cut
//	runtime.alloc_mb                    MB     heap bytes allocated per round / 1e6
//	runtime.allocs_per_iter             count  heap objects allocated per delivered image
//	runtime.gc_cycles                   count  GC cycles per round
//	runtime.gc_cpu_frac                 ratio  GC CPU over all CPU (runtime/metrics cpu classes)
//	experiment.cells                    count  ops per round
//	experiment.cell_p50_ms, _p90_ms     ms     op wall time percentiles
//	experiment.worker_idle_frac         ratio  1 - op busy time / (workers x round wall)
//	<pkg>.cpu_share                     ratio  CPU-profile samples whose innermost wadc/internal frame is
//	                                           in monitor, plan, placement, sim, netmodel or dataflow;
//	                                           runtime counts stacks with no module frame
//	<subsystem>.wall_share              ratio  obs region-clock share for sim, netmodel, dataflow,
//	                                           placement, recovery, setup and other
//	tracing.overhead                    ratio  median traced round wall / median untraced round wall
//	failed_frac                         ratio  failed ops over attempted ops
//
// # Which layer moves which end-to-end metric
//
// Profile shares measured with --trace 1 at seed 1 on a 2-vCPU VM when the
// benchmark was added:
//
//	layer                 metrics that should move   where (no change predicted elsewhere)
//	set-up                setup_s                    all workloads
//	monitor               iters_per_s, cpu_s         paper-sweep (52% of CPU), faulty-sweep (50%); shared-wan 6%
//	plan + placement      iters_per_s, cpu_s         shared-wan (60% + 10% of CPU); paper-sweep 1.6%
//	sim                   iters_per_s                all workloads (21% paper-sweep, 10% shared-wan);
//	                                                 sim.events may fall for a faster kernel
//	netmodel              iters_per_s                both sweeps (3% paper-sweep)
//	dataflow / faults     iters_per_s                strict loops on paper-sweep (9%); recovery
//	                                                 counters only on faulty-sweep
//	Go runtime            cpu_s, peak_rss_mb         all workloads (8% paper-sweep, 7% shared-wan)
//	experiment            iters_per_s                both sweeps (worker idle under 1%)
//
// The region clock folds monitor work into netmodel (monitor runs inside
// sends) and plan into placement, so the CPU shares are the ones to cite.
//
// # Traced run
//
// --trace 1 runs the same workload at the same worker count, alternating
// untraced and traced rounds (at least one of each). It records spans from
// this command's own code (name, start, end, parent, op index) around each
// set-up call and, in traced rounds, around each core.Run or core.RunMulti
// op and, on the sweeps, each policy's InitialPlacement through a
// placement.Policy wrapper that forwards DecisionAudited. A traced round
// also attaches one obs.Recorder per op through RunConfig.Perf or
// MultiConfig.Perf for the wall shares, and CPU-profiles the round. The spans and profiles are kept in memory and written to
// .bench_build/trace/ at exit; the profiles are read with a small protobuf
// reader so the command needs only the standard library.
package main
