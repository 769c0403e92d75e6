#!/usr/bin/env bash
# Verify that the fault-injection sweep is reproducible: two runs of
# ablation_fault_sweep with the same --fault-seed must produce byte-identical
# stdout and --json artifacts, and the sweep must actually exercise the
# degradation path (nonzero fallback_cas at nonzero injection rates).
#
# Usage: scripts/check_fault_determinism.sh <path-to-ablation_fault_sweep>
#        [extra driver args...]
# Defaults to the smoke sweep arguments with --fault-seed 7.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <ablation_fault_sweep binary> [args...]" >&2
  exit 2
fi
bin=$1
shift
if [ ! -x "$bin" ]; then
  echo "check_fault_determinism: $bin not built" >&2
  exit 1
fi
args=("$@")
if [ ${#args[@]} -eq 0 ]; then
  args=(--threads 1,2 --ops 20 --jobs 2 --fault-seed 7)
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

"$bin" "${args[@]}" --json "$tmpdir/a.json" > "$tmpdir/a.stdout"
"$bin" "${args[@]}" --json "$tmpdir/b.json" > "$tmpdir/b.stdout"

fail=0
if ! diff -u "$tmpdir/a.stdout" "$tmpdir/b.stdout"; then
  echo "check_fault_determinism: stdout differs between identical runs" >&2
  fail=1
fi
if ! diff -u "$tmpdir/a.json" "$tmpdir/b.json"; then
  echo "check_fault_determinism: --json artifact differs between runs" >&2
  fail=1
fi

# On a mismatch, pre-localize the first divergent interconnect message with
# the bisector (docs/replay.md) if it was built next to the driver.
# Best-effort: the diff above is the authoritative failure.
if [ "$fail" -ne 0 ]; then
  divergence=$(dirname "$bin")/../tools/sbq_divergence
  if [ -x "$divergence" ]; then
    echo "check_fault_determinism: bisecting the two runs' schedules..." >&2
    "$divergence" --queue SBQ-HTM --workload prod --threads 2 --ops 20 \
      --a-fault-rate 0.1 --b-fault-rate 0.1 \
      --a-fault-seed 7 --b-fault-seed 7 >&2 || true
  fi
fi

# At least one swept cell at a nonzero injection rate must have degraded a
# TxCAS to a plain CAS — otherwise the sweep is not exercising the fallback.
if ! grep -Eq '"fallback_cas_fraction": (0\.[0-9]*[1-9]|1)' "$tmpdir/a.json"; then
  echo "check_fault_determinism: no cell reports a nonzero" \
       "fallback_cas_fraction — degradation path not exercised" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_fault_determinism: two runs byte-identical, fallback path exercised"
