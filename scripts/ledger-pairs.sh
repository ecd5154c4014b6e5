#!/usr/bin/env bash
# Alternated parent/change pairs of one ledger workload, judged by the
# rule every perf PR since 14 applied by hand (choosing-metrics §8):
#
#   scripts/ledger-pairs.sh <parent-checkout> <workload>|all <pairs> [ledger options]
#
# Builds `ledger/` of <parent-checkout> and of this checkout, each into
# its own target directory, and puts each tree's `ledger/Cargo.lock`
# back as it found it (cargo rewrites the stale committed file). Then
# runs <pairs> pairs, swapping which side goes first, and prints per
# metric each side's median and quartiles, the change's wins, and the
# verdict: `gain` when the change wins nine tenths of the pairs and the
# medians are further apart than the parent's quartile distance;
# otherwise, when the parent's own quartile spread exceeds the bound in
# BENCHMARK.json, `unresolved` — unless every change run is worse than
# every parent run (`REGRESSION` if the median is worse by more than the
# bound) or better than every parent run (`holds`); within the bound,
# `REGRESSION` when the change's median is worse by more than the bound,
# otherwise `holds`. Trailing options go to the ledger verbatim (`--seed 43`,
# `--seconds 10`, `--traced`; per-layer metrics get medians, no verdict).
# `all` runs every workload of BENCHMARK.json in turn, <pairs> pairs
# each, and prints one table per workload. Beside the verdicts each
# table prints every run's `cpu_s / wall_s` and each side's median of
# it, so a campaign on a host that collapsed to one core shows; no
# verdict depends on it.
#
# Works in the current directory: target directories and scratch under
# `ledger-pairs-target/`, rows appended to `ledger-pairs.json` in the
# shape of `bench-baselines/ledger-pr18.json`. Every row of one
# invocation carries the same `campaign` number, one more than the
# file's largest, so a verdict quoted from an `all` run names one
# campaign and can be re-derived from its rows. Needs python3.
set -eu
usage="usage: scripts/ledger-pairs.sh <parent-checkout> <workload>|all <pairs> [ledger options]"
parent=$(cd "${1:?$usage}" && pwd)
workload=${2:?$usage}
pairs=${3:?$usage}
shift 3
change=$(cd "$(dirname "$0")/.." && pwd)
work=$PWD/ledger-pairs-target
mkdir -p "$work/run"

# A build stopped by a signal still puts the lock file back: the trap
# runs once cargo has exited.
lock= saved=
trap '[ -z "$saved" ] || cp "$saved" "$lock"' EXIT
trap 'exit 130' INT TERM
build() { # <side> <tree>
    local status=0
    lock=$2/ledger/Cargo.lock saved=$work/$1.Cargo.lock
    cp "$lock" "$saved"
    CARGO_TARGET_DIR=$work/$1 cargo build --release --offline --quiet \
        --manifest-path "$2/ledger/Cargo.toml" || status=$?
    cp "$saved" "$lock"
    saved=
    return $status
}
build parent "$parent"
build change "$change"

if [ "$workload" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$change/BENCHMARK.json")
else
    workloads=$workload
fi

rows=$PWD/ledger-pairs.json
campaign=$(python3 -c 'import json, os, sys
rows = json.load(open(sys.argv[1])) if os.path.exists(sys.argv[1]) else []
print(max((r["campaign"] for r in rows), default=0) + 1)' "$rows")

for workload in $workloads; do
    rm -f "$work/run/order"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "$workload pair $i/$pairs: $side" >&2
            # stdout's last line is the result, stderr's first the host.
            (cd "$work/run" && "$work/$side/release/ledger" --workload "$workload" "$@") \
                >"$work/run/$side.$i.out" 2>"$work/run/$side.$i.err"
            echo "$side $i" >>"$work/run/order"
        done
    done

    python3 - "$work/run" "$workload" "$change/BENCHMARK.json" "$rows" "$campaign" "$@" <<'EOF'
import json, os, statistics, sys

run, workload, benchmark, rows_path, campaign, *opts = sys.argv[1:]
campaign = int(campaign)
seed = int(opts[opts.index("--seed") + 1]) if "--seed" in opts else 42
traced = "--traced" in opts
rows = json.load(open(rows_path)) if os.path.exists(rows_path) else []
runs = {"parent": [], "change": []}
for line in open(f"{run}/order"):
    side, i = line.split()
    host = open(f"{run}/{side}.{i}.err").readline().removeprefix("host ")
    result = open(f"{run}/{side}.{i}.out").read().strip().splitlines()[-1]
    row = {"order": len(rows), "campaign": campaign, "side": side, "workload": workload, "seed": seed}
    if traced:
        row["traced"] = True
    row |= {"host": json.loads(host), "result": json.loads(result)}
    rows.append(row)
    runs[side].append(row["result"])
json.dump(rows, open(rows_path, "w"), indent=1)

bad = [r for side in runs.values() for r in side if r["failed"] or not r["correct"]]
print(f"{workload}: campaign {campaign}, {len(runs['parent'])} pairs, seed {seed}, {len(bad)} runs failed or incorrect")
for side, results in runs.items():
    # A traced run reports per-layer metrics only.
    share = [m["cpu_s"]["value"] / m["wall_s"]["value"] for m in (r["metrics"] for r in results) if "cpu_s" in m]
    if share:
        each = " ".join(f"{x:.2f}" for x in share)
        print(f"{side} cpu_s / wall_s: median {statistics.median(share):.2f}, runs {each}")
bounds = {m["name"]: m for m in json.load(open(benchmark))["end_to_end"]}
quartiles = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
for name in runs["parent"][0]["metrics"]:
    p, c = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change"))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    shift = (cm - pm) / pm * 100 if pm else 0.0
    line = f"{name:34} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {shift:+.2f} %"
    if name in bounds:
        sign = 1 if bounds[name]["better"] == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        worse = sign * (cm - pm) / pm
        better_all = max(c) < min(p) if sign == 1 else min(c) > max(p)
        worse_all = min(c) > max(p) if sign == 1 else max(c) < min(p)
        wide = (p3 - p1) / pm > bounds[name]["bound"]
        if wins >= 0.9 * len(p) and sign * (pm - cm) > p3 - p1:
            verdict = "gain"
        elif worse > bounds[name]["bound"] and (worse_all or not wide):
            verdict = "REGRESSION"
        elif wide and not better_all:
            verdict = "unresolved"
        else:
            verdict = "holds"
        line += f"  wins {wins}/{len(p)}  {verdict}"
    print(line)
EOF
done
