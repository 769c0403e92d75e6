#!/usr/bin/env bash
# Regression check for shared flags a driver must honour rather than accept
# and drop: ablation_basket_size under --fault-rate must print a different
# sweep than without it, and --record-ops must write an op trace that the
# history checker accepts (docs/replay.md).
#
# Usage: scripts/check_driver_flags.sh <ablation_basket_size binary>
#        <sbq_check_history binary>
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <ablation_basket_size binary> <sbq_check_history binary>" >&2
  exit 2
fi
bin=$1
checker=$2
for exe in "$bin" "$checker"; do
  if [ ! -x "$exe" ]; then
    echo "check_driver_flags: $exe not built" >&2
    exit 1
  fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
args=(--threads 1,2 --ops 20 --repeats 1 --jobs 2)

fail=0
"$bin" "${args[@]}" > "$tmpdir/plain.stdout"
"$bin" "${args[@]}" --fault-rate 0.5 > "$tmpdir/fault.stdout"
if cmp -s "$tmpdir/plain.stdout" "$tmpdir/fault.stdout"; then
  echo "check_driver_flags: --fault-rate 0.5 left the sweep unchanged" >&2
  fail=1
fi

"$bin" "${args[@]}" --record-ops "$tmpdir/cell.sbqo" > /dev/null
if [ ! -s "$tmpdir/cell.sbqo" ]; then
  echo "check_driver_flags: --record-ops wrote no trace" >&2
  fail=1
elif ! "$checker" "$tmpdir/cell.sbqo"; then
  echo "check_driver_flags: the recorded trace fails the history checker" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_driver_flags: --fault-rate and --record-ops honoured"
