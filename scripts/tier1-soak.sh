#!/usr/bin/env bash
# Tier-1 soak (ROADMAP 1(a)): N times `cargo build --release && cargo
# test -q` at the repo root. Prints `passed/N`; the log of the first
# failing run is kept as tier1-soak-fail.log in the current directory.
# Exit status 0 only if every run passed.
set -u
n=${1:?usage: scripts/tier1-soak.sh N}
root=$(cd "$(dirname "$0")/.." && pwd)
log=$(mktemp)
passed=0
kept=
for i in $(seq 1 "$n"); do
    if (cd "$root" && cargo build --release && cargo test -q) >"$log" 2>&1; then
        passed=$((passed + 1))
    elif [ -z "$kept" ]; then
        kept=tier1-soak-fail.log
        cp "$log" "$kept"
        echo "run $i failed: log kept in $kept" >&2
    fi
done
rm -f "$log"
echo "$passed/$n"
[ "$passed" -eq "$n" ]
