#!/usr/bin/env bash
# Self-time profile of one command, from the opt-in PC sampler.
#
# Builds tools/pc_sampler.c into a preload library, runs the command under
# it (a 50 us CLOCK_MONOTONIC timer records the interrupted instruction
# pointer), then symbolizes the samples with addr2line and prints the
# functions that own the most samples. addr2line names the innermost
# function at each address, so a function inlined into its caller keeps
# its own row.
#
# Usage:
#   scripts/profile_self_time.sh [-n TOP] [-o SAMPLES] [-i] -- CMD [ARGS...]
#
#   -n TOP      rows to print (default 25)
#   -o SAMPLES  keep the raw sample file here (default: a temporary file)
#   -i          also print the source lines that own the most samples, each
#               with its inline chain (addr2line -i), innermost first:
#               "flat_map.hpp:182 FlatMap<..>::find_index < line_table.hpp:111
#               LineTable::find < core.cpp:108 Core::acquire" reads "line 182
#               of find_index, inlined into LineTable::find at line 111,
#               inlined into Core::acquire at line 108". This splits an
#               inlined helper's row by the callers it was inlined into.
#
# Env: PC_SAMPLER_PERIOD_US (default 50), CC (default cc).
#
# Profile single-threaded runs (for the sweep drivers: --jobs 1); the
# timer is process-wide. Build with symbols (the default RelWithDebInfo
# build has them) so addr2line can name the functions.
#
# Example:
#   scripts/profile_self_time.sh -- build/bench/fig6_dequeue \
#       --threads 44 --ops 200 --jobs 1
set -euo pipefail
cd "$(dirname "$0")/.."

TOP=25
KEEP=""
LINES=0
while [ $# -gt 0 ]; do
  case "$1" in
    -n) TOP=$2; shift 2 ;;
    -o) KEEP=$2; shift 2 ;;
    -i) LINES=1; shift ;;
    --) shift; break ;;
    *) break ;;
  esac
done
if [ $# -eq 0 ]; then
  echo "usage: scripts/profile_self_time.sh [-n TOP] [-o SAMPLES] [-i] -- CMD [ARGS...]" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
${CC:-cc} -O2 -shared -fPIC -o "$WORK/pc_sampler.so" tools/pc_sampler.c
SAMPLES=${KEEP:-$WORK/samples.txt}

LD_PRELOAD="$WORK/pc_sampler.so" PC_SAMPLER_OUT="$SAMPLES" "$@" >/dev/null

python3 - "$SAMPLES" "$TOP" "$LINES" <<'PY'
import bisect, collections, re, subprocess, sys

path, top, want_lines = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
maps, pcs, header = [], collections.Counter(), ""
for line in open(path):
    if line.startswith("#"):
        header = line[1:].strip()
    elif line.startswith("map "):
        _, start, end, off, file = line.split(maxsplit=4)
        maps.append((int(start, 16), int(end, 16), int(off, 16), file.strip()))
    else:
        pcs[int(line, 16)] += 1
maps.sort()
starts = [m[0] for m in maps]

def is_exec_type(file, cache={}):
    # ET_EXEC binaries are linked at absolute addresses; PIE executables
    # and shared objects need the pc rebased to a file-relative address.
    if file not in cache:
        try:
            with open(file, "rb") as f:
                f.seek(16)
                cache[file] = int.from_bytes(f.read(2), "little") == 2
        except OSError:
            cache[file] = False
    return cache[file]

by_file = collections.defaultdict(collections.Counter)
unmapped = 0
for pc, n in pcs.items():
    i = bisect.bisect_right(starts, pc) - 1
    if i < 0 or pc >= maps[i][1]:
        unmapped += n
        continue
    start, _, off, file = maps[i]
    addr = pc if is_exec_type(file) else pc - start + off
    by_file[file][addr] += n

total = sum(pcs.values())
funcs = collections.Counter()
for file, addrs in by_file.items():
    keys = list(addrs)
    try:
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", file] + ["%x" % a for a in keys],
            capture_output=True, text=True, check=True).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        out = []
    base = file.rsplit("/", 1)[-1]
    for j, a in enumerate(keys):
        name = out[2 * j] if 2 * j < len(out) else "??"
        if name == "??":
            name = "?? (%s)" % base
        funcs[name] += addrs[a]
if unmapped:
    funcs["?? (unmapped)"] += unmapped

print("# %s; %d samples" % (header, total))
print("%7s  %7s  %s" % ("self%", "samples", "function"))
for name, n in funcs.most_common(top):
    print("%6.2f%%  %7d  %s" % (100.0 * n / max(total, 1), n, name))

def short_name(name):
    # Drop the parameter list (and a trailing const): the chain needs the
    # function, not its overload.
    name = re.sub(r"\s+const$", "", name)
    if name.endswith(")"):
        depth = 0
        for i in range(len(name) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(name[i], 0)
            if depth == 0:
                return name[:i] if i > 0 else name
    return name

def frame(text):
    # "func at /dir/file.cpp:123 (discriminator 4)" -> "file.cpp:123 func"
    func, _, where = text.rpartition(" at ")
    if not func:
        func, where = text, "??:0"
    where = where.split(" (discriminator")[0].rsplit("/", 1)[-1]
    return "%s %s" % (where, short_name(func))

if want_lines:
    chains = collections.Counter()
    for file, addrs in by_file.items():
        keys = list(addrs)
        try:
            out = subprocess.run(
                ["addr2line", "-a", "-p", "-f", "-C", "-i", "-e", file] +
                ["%x" % a for a in keys],
                capture_output=True, text=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            out = ""
        base = file.rsplit("/", 1)[-1]
        # One record per address: "0xADDR: innermost frame", then one
        # " (inlined by) caller frame" line per enclosing inlined call.
        records = {}
        addr = None
        for line in out.splitlines():
            m = re.match(r"^0x([0-9a-f]+): (.*)$", line)
            if m:
                addr = int(m.group(1), 16)
                records[addr] = [frame(m.group(2))]
            elif addr is not None and line.strip().startswith("(inlined by)"):
                records[addr].append(
                    frame(line.strip()[len("(inlined by) "):]))
        for a in keys:
            chain = records.get(a) or ["?? (%s)" % base]
            # A lexical block inside a function can show up as one more
            # frame of the same function; keep its innermost line only.
            chain = [f for i, f in enumerate(chain)
                     if i == 0 or f.split(" ", 1)[1] !=
                     chain[i - 1].split(" ", 1)[1]]
            if chain[0].startswith("??:"):
                chain = ["?? (%s)" % base]
            chains[" < ".join(chain)] += addrs[a]
    if unmapped:
        chains["?? (unmapped)"] += unmapped
    print()
    print("%7s  %7s  %s" % ("self%", "samples",
                            "source line < inlined into, innermost first"))
    for chain, n in chains.most_common(top):
        print("%6.2f%%  %7d  %s" % (100.0 * n / max(total, 1), n, chain))
PY
