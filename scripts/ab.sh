#!/usr/bin/env bash
# Alternating-pair A/B of two built stackbench binaries, the way every
# performance claim in this repo is made (choosing-metrics, section 8):
# each pair runs both sides on one workload and seed, which side goes
# first alternates from pair to pair, and a side's numbers are the median
# and quartiles over its runs plus the pairs it won.
#
#   scripts/ab.sh [--smoke] [--workloads A,B] [--seeds 11[,1997]] [--keep DIR]
#                 PARENT_BIN CHANGE_BIN PAIRS [PARENT_LABEL CHANGE_LABEL]
#
# Every workload of BENCHMARK.json, at the default and the held-out seed,
# untraced; --workloads runs only the named ones (in BENCHMARK.json's
# order) and --seeds only the listed seeds. Appends one JSON line per
# side per workload per seed per bounded end-to-end metric to
# BENCH_history.jsonl at the root of this checkout: median, q1, q3 (Python's statistics.quantiles, which the
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
#
# --keep DIR: keep every run's result file, as
# DIR/{parent,change}.WORKLOAD.SEED.PAIR.json, so per-layer readings
# (cgm.runs, wal.records, ...) can be read after the summary; without
# it they go to a temporary directory that is removed on exit.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}
smoke="" only="" seeds="11 1997" keep=""
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) smoke="--smoke" && shift ;;
        --workloads) [ $# -ge 2 ] || usage && only=$2 && shift 2 ;;
        --seeds) [ $# -ge 2 ] || usage && seeds=${2//,/ } && shift 2 ;;
        --keep) [ $# -ge 2 ] || usage && keep=$2 && shift 2 ;;
        *) break ;;
    esac
done
if [ $# -ne 3 ] && [ $# -ne 5 ]; then
    usage
fi
for seed in $seeds; do
    case "$seed" in '' | *[!0-9]*) echo "ab.sh: bad seed '$seed'" >&2 && exit 2 ;; esac
done
parent_bin=$(realpath "$1")
change_bin=$(realpath "$2")
pairs=$3
labels="${4:-} ${5:-}"
root=$(cd "$(dirname "$0")/.." && pwd)
if [ -n "$keep" ]; then
    mkdir -p "$keep"
    raw=$(realpath "$keep")
else
    raw=$(mktemp -d)
    trap 'rm -rf "$raw"' EXIT
fi

workloads=$(python3 -c '
import json, sys
names = [w["name"] for w in json.load(open(sys.argv[1]))["workloads"]]
only = sys.argv[2].split(",") if sys.argv[2] else names
unknown = [n for n in only if n not in names]
if unknown:
    sys.exit("ab.sh: unknown workload(s): " + ", ".join(unknown))
print(" ".join(n for n in names if n in only))
' "$root/BENCHMARK.json" "$only")

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

for seed in $seeds; do
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

summary=$(python3 - "$root/BENCHMARK.json" "$raw" "$pairs" "$seeds" "$workloads" $labels <<'EOF'
import json, statistics, sys
from pathlib import Path

bench = json.load(open(sys.argv[1]))
raw, pairs = Path(sys.argv[2]), int(sys.argv[3])
seeds, workloads = [int(s) for s in sys.argv[4].split()], sys.argv[5].split()
labels = dict(zip(("parent", "change"), sys.argv[6:8]))


def load(side, workload, seed, pair):
    path = raw / f"{side}.{workload}.{seed}.{pair}.json"
    return json.load(open(path)) if path.exists() else None


for seed in seeds:
    for workload in workloads:
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
