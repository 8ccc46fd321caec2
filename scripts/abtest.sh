#!/usr/bin/env bash
# A/B benchmark of the working tree against a base revision: builds both
# sides, runs them in alternating pairs and reports each metric with a sign
# test. Two modes:
#
#   scripts/abtest.sh <base-rev> <workload> <pairs> [seed] [seconds]
#   scripts/abtest.sh <base-rev> bench:<pkg>:<regexp> <pairs> [benchtime]
#
#   base-rev  any git revision (e.g. HEAD~1, main, a commit hash)
#   pairs     number of base/change pairs; pair i runs base first when i is
#             odd and the change first when i is even
#
# Workload mode runs wadcbench:
#   workload  a wadcbench workload (paper-sweep, shared-wan, faulty-sweep)
#   seed      wadcbench --seed (default 1)
#   seconds   wadcbench --seconds, the timed phase of each run (default 35)
# It checks that every run is correct and that both sides print the same
# output digest, and reports each end-to-end metric of BENCHMARK.json.
#
# Microbenchmark mode runs `go test` benchmarks:
#   pkg       a package directory relative to the module root
#             (e.g. ./internal/dataflow)
#   regexp    a -test.bench pattern (e.g. 'DataflowPipeline$')
#   benchtime -test.benchtime per run (default 1s)
# Each side's test binary (`go test -c`) runs from its own copy of the
# package directory with GOMAXPROCS=1, -test.run '^$' -test.benchmem and a
# 10-minute -test.timeout. Per benchmark it reports ns/op, and prints both
# sides' allocs/op, flagging any difference.
#
# The base side is built from a `git archive` of <base-rev>, the change side
# from the working tree, both into .bench_build/ab/ with the environment
# wadcbench/run.sh uses (private build cache, no network). Each run's output
# is kept in .bench_build/ab/runs/. Exit status: 0 when every run succeeded
# (and, for workloads, was correct with agreeing digests), 1 otherwise, 2 for
# a bad command line. Statistics use the python3 standard library only.
set -euo pipefail

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
  exit 2
}
[ $# -ge 3 ] || usage
base_rev="$1" target="$2" pairs="$3"
case "$target" in
  bench:*:*)
    mode=bench
    [ $# -le 4 ] || usage
    spec="${target#bench:}"
    pkg="${spec%%:*}" bench_re="${spec#*:}" benchtime="${4:-1s}"
    if [ -z "$pkg" ] || [ -z "$bench_re" ]; then
      echo "abtest: want bench:<pkg>:<regexp>, got $target" >&2
      exit 2
    fi
    ;;
  *)
    mode=workload
    [ $# -le 5 ] || usage
    workload="$target" seed="${4:-1}" seconds="${5:-35}"
    case "$seed$seconds" in
      *[!0-9]*) echo "abtest: seed and seconds must be non-negative integers" >&2; exit 2 ;;
    esac
    ;;
esac
case "$pairs" in
  *[!0-9]*) echo "abtest: pairs must be a non-negative integer" >&2; exit 2 ;;
esac
if [ "$pairs" -lt 1 ]; then
  echo "abtest: need at least one pair" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
root="$(pwd)"
ab="$root/.bench_build/ab"
src="$ab/base-src"
mkdir -p "$root/.bench_build/go-cache" "$root/.bench_build/tmp" "$ab/base" "$ab/change"
rm -rf "$ab/runs"
mkdir -p "$ab/runs"
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

base_commit="$(git rev-parse --verify --quiet "$base_rev^{commit}")" || {
  echo "abtest: unknown revision $base_rev" >&2
  exit 2
}
trap 'rm -rf "$src"' EXIT
rm -rf "$src"
mkdir -p "$src"
git archive "$base_commit" | tar -x -C "$src"
echo "base $base_rev ($(git rev-parse --short "$base_commit")) vs working tree; $pairs pairs"

if [ "$mode" = workload ]; then
  (cd "$src" && go build -o "$ab/base/wadcbench" ./wadcbench)
  go build -o "$ab/change/wadcbench" ./wadcbench
  echo "workload $workload, seed $seed, ${seconds}s runs"
  run_side() { # side pair
    local out="$ab/runs/$1-$2.txt"
    "$ab/$1/wadcbench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
      >"$out" 2>&1 || true
    echo "pair $2 $1: $(grep -o '"iters_per_s":{"value":[0-9.e+-]*' "$out" | sed 's/.*://' || echo failed) images/s"
  }
else
  (cd "$src" && go test -c -o "$ab/base/pkg.test" "$pkg")
  go test -c -o "$ab/change/pkg.test" "$pkg"
  echo "benchmarks $pkg $bench_re, benchtime $benchtime, GOMAXPROCS=1"
  run_side() { # side pair
    local out="$ab/runs/$1-$2.txt" dir="$root/$pkg"
    [ "$1" = base ] && dir="$src/$pkg"
    (cd "$dir" && GOMAXPROCS=1 "$ab/$1/pkg.test" -test.run '^$' -test.bench "$bench_re" \
      -test.benchmem -test.benchtime "$benchtime" -test.timeout 10m) >"$out" 2>&1 ||
      { echo "abtest: $out: the test binary failed" >&2; tail -n 20 "$out" >&2; exit 1; }
    echo "pair $2 $1: $(grep -c '^Benchmark.*ns/op' "$out") benchmarks"
  }
fi
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run_side base "$i"
    run_side change "$i"
  else
    run_side change "$i"
    run_side base "$i"
  fi
done

python3 - "$mode" "$root/BENCHMARK.json" "$ab/runs" "$pairs" <<'EOF'
import json
import math
import statistics
import sys

mode, bench_path, runs_dir, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])


def read(side, i):
    path = f"{runs_dir}/{side}-{i}.txt"
    return path, open(path).read().splitlines()


def load_workload(side, i):
    path, lines = read(side, i)
    digests = [l for l in lines if l.startswith("digest ")]
    results = [l for l in lines if l.startswith('{"correct"')]
    if not results:
        sys.exit(f"abtest: {path}: the run printed no result line")
    res = json.loads(results[-1])
    if not res["correct"]:
        sys.exit(f'abtest: {path}: "correct":false')
    if len(digests) != 1:
        sys.exit(f"abtest: {path}: expected one digest line, got {len(digests)}")
    return digests[0], {k: v["value"] for k, v in res["metrics"].items()}


def load_bench(side, i):
    """Per benchmark name: {"ns/op": x, "allocs/op": y} from one run."""
    path, lines = read(side, i)
    out = {}
    for line in lines:
        f = line.split()
        if not f or not f[0].startswith("Benchmark") or "ns/op" not in f:
            continue
        out[f[0]] = {unit: float(f[j - 1]) for j, unit in enumerate(f) if unit in ("ns/op", "allocs/op")}
    if not out:
        sys.exit(f"abtest: {path}: no benchmark results")
    return None, out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def sign_test(wins, losses):
    """Exact two-sided sign-test p-value; ties are dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2 * tail)


def fmt(x):
    return f"{x:.4g}"


def row(name, b, c, higher, width):
    """One table line: medians with quartiles, ratio, wins, sign test, gap."""
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    wins = sum((ci > bi) if higher else (ci < bi) for bi, ci in zip(b, c))
    losses = sum((ci < bi) if higher else (ci > bi) for bi, ci in zip(b, c))
    ratio = cmed / bmed if bmed else float("nan")
    gap = abs(cmed - bmed) > (bq3 - bq1)
    print(f"{name:<{width}} {fmt(bmed) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':<34}"
          f" {fmt(cmed) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':<34}"
          f" {ratio:>7.3f} {f'{wins}/{pairs}':>6} {sign_test(wins, losses):>8.4g}  {'yes' if gap else 'no'}")


def header(first, width):
    print(f"{first:<{width}} {'base median [q1, q3]':<34} {'change median [q1, q3]':<34}"
          f" {'ratio':>7} {'wins':>6} {'p':>8}  gap>IQR")


load = load_workload if mode == "workload" else load_bench
runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("base", "change")}

if mode == "workload":
    metrics = json.load(open(bench_path))["end_to_end"]
    digests = {d for side in runs.values() for d, _ in side}
    if len(digests) != 1:
        sys.exit("abtest: output digests differ:\n  " + "\n  ".join(sorted(digests)))
    print(f"outputs: every run correct, one digest: {digests.pop()}")
    header("metric", 16)
    for m in metrics:
        name = m["name"]
        row(name, [r[name] for _, r in runs["base"]], [r[name] for _, r in runs["change"]],
            m["better"] == "higher", 16)
    print("drift (base, last pair / first pair):", ", ".join(
        f"{m['name']} {runs['base'][-1][1][m['name']] / runs['base'][0][1][m['name']]:.3f}"
        if runs["base"][0][1][m["name"]] else f"{m['name']} n/a"
        for m in metrics))
    sys.exit(0)

names = sorted(set().union(*(r.keys() for _, r in runs["base"] + runs["change"])))
missing = [n for n in names if any(n not in r for _, r in runs["base"] + runs["change"])]
if missing:
    sys.exit("abtest: benchmarks missing from some runs: " + ", ".join(missing))
width = max(len("ns/op") + 2, *(len(n) for n in names))
header("ns/op", width)
for name in names:
    row(name, [r[name]["ns/op"] for _, r in runs["base"]],
        [r[name]["ns/op"] for _, r in runs["change"]], False, width)
print()
moved = False
for name in names:
    sides = {side: sorted({r[name].get("allocs/op") for _, r in runs[side]}, key=str)
             for side in ("base", "change")}
    same = sides["base"] == sides["change"] and len(sides["base"]) == 1
    moved |= not same
    show = {side: "/".join("-" if v is None else f"{v:g}" for v in vals) for side, vals in sides.items()}
    print(f"allocs/op {name:<{width}} base {show['base']:>8}  change {show['change']:>8}"
          f"{'' if same else '  DIFFERS'}")
if moved:
    print("allocs/op: the sides differ (flagged above)")
EOF
