#!/usr/bin/env bash
# Alternating-pair A/B of two built stackbench binaries, the way every
# performance claim in this repo is made (choosing-metrics, section 8):
# each pair runs both sides on one workload and seed, which side goes
# first alternates from pair to pair, and a side's numbers are the median
# and quartiles over its runs plus the pairs it won.
#
#   scripts/ab.sh [--smoke] PARENT_BIN CHANGE_BIN PAIRS [PARENT_LABEL CHANGE_LABEL]
#
# Every workload of BENCHMARK.json, at the default and the held-out seed,
# untraced. Appends one JSON line per side per workload per seed per
# bounded end-to-end metric to BENCH_history.jsonl at the root of this
# checkout: median, q1, q3 (Python's statistics.quantiles, which the
# benchmark driver uses), runs, pairs, wins, ties, failed / attempted, and
# the host block stackbench wrote for that side. A side's `label` is its
# `host.commit` unless given: a change is measured before it is committed,
# when its checkout's HEAD is still the parent.
#
# A binary is run from its own directory, so build each side inside its
# checkout (`cargo build --release --manifest-path
# crates/bench/src/bin/stackbench/Cargo.toml` leaves it under that
# directory's target/): it finds its own BENCHMARK.json above it and
# `host.commit` names its own commit.
#
# --smoke: one-second runs, and the lines go to stdout instead of the
# history file. CI runs it with one binary on both sides so the script
# cannot rot.
set -euo pipefail

smoke=""
if [ "${1:-}" = "--smoke" ]; then
    smoke="--smoke"
    shift
fi
if [ $# -ne 3 ] && [ $# -ne 5 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent_bin=$(realpath "$1")
change_bin=$(realpath "$2")
pairs=$3
labels="${4:-} ${5:-}"
root=$(cd "$(dirname "$0")/.." && pwd)
raw=$(mktemp -d)
trap 'rm -rf "$raw"' EXIT

workloads=$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$root/BENCHMARK.json")

# One run of one side: the result file stackbench writes, kept per pair.
run_side() { # side bin workload seed pair
    local out="$raw/$1"
    (cd "$(dirname "$2")" &&
        "$2" run --workload "$3" --seed "$4" --trace 0 --out "$out" $smoke >/dev/null 2>&1) ||
        echo "ab.sh: $1 exited $? on $3 seed $4 pair $5" >&2
    if [ -f "$out/$3.seed$4.trace0.json" ]; then
        mv "$out/$3.seed$4.trace0.json" "$raw/$1.$3.$4.$5.json"
    fi
}

for seed in 11 1997; do
    for workload in $workloads; do
        for pair in $(seq 1 "$pairs"); do
            if [ $((pair % 2)) -eq 1 ]; then
                run_side parent "$parent_bin" "$workload" "$seed" "$pair"
                run_side change "$change_bin" "$workload" "$seed" "$pair"
            else
                run_side change "$change_bin" "$workload" "$seed" "$pair"
                run_side parent "$parent_bin" "$workload" "$seed" "$pair"
            fi
            echo "ab.sh: $workload seed $seed pair $pair/$pairs" >&2
        done
    done
done

summary=$(python3 - "$root/BENCHMARK.json" "$raw" "$pairs" $labels <<'EOF'
import json, statistics, sys
from pathlib import Path

bench = json.load(open(sys.argv[1]))
raw, pairs = Path(sys.argv[2]), int(sys.argv[3])
labels = dict(zip(("parent", "change"), sys.argv[4:6]))


def load(side, workload, seed, pair):
    path = raw / f"{side}.{workload}.{seed}.{pair}.json"
    return json.load(open(path)) if path.exists() else None


for seed in (11, 1997):
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {s: [load(s, workload, seed, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {s: [r and r["metrics"].get(name) for r in rs] for s, rs in runs.items()}
            both = [(a, b) for a, b in zip(values["parent"], values["change"]) if a is not None and b is not None]
            for side, other in (("parent", "change"), ("change", "parent")):
                mine = [v for v in values[side] if v is not None]
                done = [r for r in runs[side] if r]
                if not mine:
                    continue
                flip = sign if side == "change" else -sign
                q = statistics.quantiles(mine, n=4) if len(mine) > 1 else [mine[0]] * 3
                print(json.dumps({
                    "label": labels.get(side, done[-1]["host"]["commit"]),
                    "side": side, "against": labels.get(other, other), "workload": workload, "seed": seed,
                    "metric": name, "unit": metric["unit"], "better": metric["better"],
                    "median": statistics.median(mine), "q1": q[0], "q3": q[2],
                    "runs": len(mine), "pairs": len(both),
                    "wins": sum(flip * (b - a) > 0 for a, b in both),
                    "ties": sum(a == b for a, b in both),
                    "failed": sum(r["failed"] for r in done),
                    "attempted": sum(r["attempted"] for r in done),
                    "host": done[-1]["host"],
                }))
EOF
)

if [ -n "$smoke" ]; then
    echo "$summary"
else
    echo "$summary" >>"$root/BENCH_history.jsonl"
    echo "ab.sh: appended $(echo "$summary" | wc -l) lines to $root/BENCH_history.jsonl" >&2
fi
[ -n "$summary" ]
