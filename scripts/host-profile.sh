#!/usr/bin/env bash
# Where one ledger workload spends host CPU, per function, on a host
# without `perf`:
#
#   scripts/host-profile.sh <workload> [seconds] [checkout]
#
# Copies <checkout> (default: this one) into the current directory,
# builds its `ledger/` there exactly as BENCHMARK.json does, and runs
# `--workload <workload> --seconds <seconds>` (default 10) with
# scripts/sigprof.c preloaded: a SIGPROF sampler that records the
# running thread's stack every ~1 ms of process CPU. The stacks are
# symbolized with `addr2line -f -C -i` (inlined frames count as
# functions of their own) and printed as two tables, each function's
# share of all samples: *self* (the innermost frame of the sample) and
# *inclusive* (anywhere on the stack, once per sample; frames on nearly
# every stack — thread entry, the workload's loop — are left out of the
# printed top rows). Code outside the ledger binary (libc's futex and
# allocator, the vDSO) shows as `[library]`. The full inclusive table is
# kept in host-profile.<workload>.txt; compare two checkouts by running
# the script once with each.
#
# Works in the current directory: copies, target directories and the
# sampler under `host-profile-work/`. Needs gcc, addr2line, readelf and
# python3.
set -eu
usage="usage: scripts/host-profile.sh <workload> [seconds] [checkout]"
workload=${1:?$usage}
seconds=${2:-10}
here=$(cd "$(dirname "$0")/.." && pwd)
tree=$(cd "${3:-$here}" && pwd)
work=$PWD/host-profile-work
copy=$work/$(printf %s "$tree" | cksum | cut -d' ' -f1)
mkdir -p "$copy/src" "$work/run"

gcc -shared -fPIC -O2 -o "$work/libsigprof.so" "$here/scripts/sigprof.c"
# A scratch copy: cargo rewrites the stale committed ledger/Cargo.lock.
tar -C "$tree" --exclude=./target --exclude=./.git --exclude=./ledger/target -cf - . |
    tar -C "$copy/src" -xf -
CARGO_TARGET_DIR=$copy/target cargo build --release --offline --quiet \
    --manifest-path "$copy/src/ledger/Cargo.toml"
bin=$copy/target/release/ledger

rm -f "$work/run/prof.stacks" "$work/run/prof.maps"
(cd "$work/run" && HOST_PROFILE_OUT=$work/run/prof LD_PRELOAD=$work/libsigprof.so \
    "$bin" --workload "$workload" --seconds "$seconds" >/dev/null)

python3 - "$work/run/prof" "$workload" "$PWD/host-profile.$workload.txt" "$bin" <<'EOF'
import collections, os, re, subprocess, sys

prof, workload, table_path, binary = sys.argv[1:]
lines = open(prof + ".stacks").read().splitlines()
header, stacks = lines[0], [[int(a, 16) for a in l.split()] for l in lines[1:] if l]

maps = []  # (start, end, file offset, path) of file-backed mappings
for line in open(prof + ".maps"):
    f = line.split()
    if len(f) >= 6 and f[5].startswith(("/", "[vdso]")):
        start, end = (int(x, 16) for x in f[0].split("-"))
        maps.append((start, end, int(f[2], 16), f[5]))

def place(addr):
    for start, end, off, path in maps:
        if start <= addr < end:
            return path, addr - start + off
    return None, addr

def loads(path):  # (file offset, vaddr, size) of each PT_LOAD segment
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    segs = []
    for l in out.splitlines():
        f = l.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs

# Frame 0 is the interrupted instruction; the others are return
# addresses, so step back into the call instruction before looking up.
wanted = collections.defaultdict(set)
for stack in stacks:
    for i, addr in enumerate(stack):
        path, off = place(addr - (i > 0))
        if path:
            wanted[path].add(off)

names = {}  # (path, file offset) -> [innermost function, ..., outermost]
hash_suffix = re.compile(r"::h[0-9a-f]{16}$")
for path, offs in wanted.items():
    label = "[" + os.path.basename(path).strip("[]") + "]"
    if os.path.realpath(path) != os.path.realpath(binary):
        # Only the ledger has the line tables; nearest-symbol guesses in
        # a stripped library name the wrong function.
        for off in offs:
            names[(path, off)] = [label]
        continue
    segs = loads(path)
    offs = sorted(offs)
    vaddrs = []
    for off in offs:
        seg = next((s for s in segs if s[0] <= off < s[0] + s[2]), None)
        vaddrs.append(off - seg[0] + seg[1] if seg else off)
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", path],
        input="\n".join(f"{v:#x}" for v in vaddrs), capture_output=True, text=True,
    ).stdout.splitlines()
    # Per address: the address, then a function line and a file:line
    # line for each inlining level, innermost first.
    frames = []
    for l in out:
        if re.fullmatch(r"0x[0-9a-f]+", l):
            frames.append([])
        else:
            frames[-1].append(l)
    # An inlined frame is named without its path (`read`, `record`): add
    # the file its line is in.
    def name(func, where):
        func = hash_suffix.sub("", func)
        return func if "::" in func else f"{func} [{os.path.basename(where.split(':')[0])}]"
    for off, levels in zip(offs, frames):
        funcs = [name(f, w) for f, w in zip(levels[0::2], levels[1::2]) if f != "??"]
        names[(path, off)] = funcs or [label]

self_n, incl_n = collections.Counter(), collections.Counter()
for stack in stacks:
    seen = set()
    for i, addr in enumerate(stack):
        path, off = place(addr - (i > 0))
        funcs = names.get((path, off), ["[unknown]"]) if path else ["[unknown]"]
        if i == 0:
            self_n[funcs[0]] += 1
        seen.update(funcs)
    for f in seen:
        incl_n[f] += 1

total = len(stacks)
def table(rows, width=None):
    return "\n".join(f"{100 * n / total:6.2f} %  {f[:width]}" for f, n in rows)
with open(table_path, "w") as t:
    t.write(f"# {workload}: {total} samples ({header.lstrip('# ')}), inclusive share\n")
    t.write(table(incl_n.most_common()) + "\n")
print(f"{workload}: {total} samples ({header.lstrip('# ')})")
print("\nself (innermost frame)")
print(table(self_n.most_common(25), 120))
print("\ninclusive (anywhere on the stack; frames on >= 95 % of stacks left out)")
print(table([(f, n) for f, n in incl_n.most_common() if n < 0.95 * total][:40], 120))
print(f"\nfull inclusive table: {table_path}")
EOF
