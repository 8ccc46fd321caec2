#!/usr/bin/env bash
# A/B benchmark of the working tree against a base revision on one wadcbench
# workload: builds both sides, runs them in alternating pairs, checks that
# every run is correct and that both sides print the same output digest, and
# reports each end-to-end metric of BENCHMARK.json with a sign test.
#
# Usage: scripts/abtest.sh <base-rev> <workload> <pairs> [seed] [seconds]
#   base-rev  any git revision (e.g. HEAD~1, main, a commit hash)
#   workload  a wadcbench workload (paper-sweep, shared-wan, faulty-sweep)
#   pairs     number of base/change pairs; pair i runs base first when i is
#             odd and the change first when i is even
#   seed      wadcbench --seed (default 1)
#   seconds   wadcbench --seconds, the timed phase of each run (default 35)
#
# The base side is built from a temporary `git worktree` of <base-rev>, the
# change side from the working tree, both into .bench_build/ab/ with the
# environment wadcbench/run.sh uses (private build cache, no network). Each
# run's output is kept in .bench_build/ab/runs/. Exit status: 0 when every
# run is correct and the digests agree, 1 otherwise, 2 for a bad command line.
# Statistics use the python3 standard library only.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
base_rev="$1" workload="$2" pairs="$3" seed="${4:-1}" seconds="${5:-35}"
case "$pairs$seed$seconds" in
  *[!0-9]*) echo "abtest: pairs, seed and seconds must be non-negative integers" >&2; exit 2 ;;
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
cleanup() {
  git worktree remove --force "$src" >/dev/null 2>&1 || true
  rm -rf "$src"
  git worktree prune >/dev/null 2>&1 || true
}
trap cleanup EXIT
cleanup
git worktree add --detach --quiet "$src" "$base_commit"
(cd "$src" && go build -o "$ab/base/wadcbench" ./wadcbench)
cleanup
go build -o "$ab/change/wadcbench" ./wadcbench
echo "base $base_rev ($(git rev-parse --short "$base_commit")) vs working tree;" \
  "workload $workload, seed $seed, $pairs pairs of ${seconds}s runs"

run_side() { # side pair
  local out="$ab/runs/$1-$2.txt"
  "$ab/$1/wadcbench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    >"$out" 2>&1 || true
  echo "pair $2 $1: $(grep -o '"iters_per_s":{"value":[0-9.e+-]*' "$out" | sed 's/.*://' || echo failed) images/s"
}
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run_side base "$i"
    run_side change "$i"
  else
    run_side change "$i"
    run_side base "$i"
  fi
done

python3 - "$root/BENCHMARK.json" "$ab/runs" "$pairs" <<'EOF'
import json
import math
import statistics
import sys

bench_path, runs_dir, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
metrics = json.load(open(bench_path))["end_to_end"]


def load(side, i):
    path = f"{runs_dir}/{side}-{i}.txt"
    lines = open(path).read().splitlines()
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


runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("base", "change")}
digests = {d for side in runs.values() for d, _ in side}
if len(digests) != 1:
    sys.exit("abtest: output digests differ:\n  " + "\n  ".join(sorted(digests)))
print(f"outputs: every run correct, one digest: {digests.pop()}")


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


print(f"{'metric':<16} {'base median [q1, q3]':<34} {'change median [q1, q3]':<34}"
      f" {'ratio':>7} {'wins':>6} {'p':>8}  gap>IQR")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    b = [r[name] for _, r in runs["base"]]
    c = [r[name] for _, r in runs["change"]]
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    wins = sum((ci > bi) if higher else (ci < bi) for bi, ci in zip(b, c))
    losses = sum((ci < bi) if higher else (ci > bi) for bi, ci in zip(b, c))
    ratio = cmed / bmed if bmed else float("nan")
    gap = abs(cmed - bmed) > (bq3 - bq1)
    print(f"{name:<16} {fmt(bmed) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':<34}"
          f" {fmt(cmed) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':<34}"
          f" {ratio:>7.3f} {f'{wins}/{pairs}':>6} {sign_test(wins, losses):>8.4g}  {'yes' if gap else 'no'}")

print("drift (base, last pair / first pair):", ", ".join(
    f"{m['name']} {runs['base'][-1][1][m['name']] / runs['base'][0][1][m['name']]:.3f}"
    if runs["base"][0][1][m["name"]] else f"{m['name']} n/a"
    for m in metrics))
EOF
