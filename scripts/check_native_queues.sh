#!/usr/bin/env bash
# Smoke checks of the native_queues binary, one per mode:
#
#   check_native_queues.sh bench <native_queues binary>
#     runs every registered pairwise benchmark at 1 and 2 threads for a
#     minimal time, and fails unless each of the six lineup queues ran at
#     both thread counts;
#   check_native_queues.sh record <native_queues binary> <sbq_check_history binary>
#     records one op trace per queue (--record-ops=PREFIX) and passes each
#     of the six through the linearizability checker (docs/replay.md), and
#     fails if a junk --record-threads value is accepted.
set -euo pipefail

usage() {
  echo "usage: $0 bench <native_queues>" >&2
  echo "       $0 record <native_queues> <sbq_check_history>" >&2
  exit 2
}
[ $# -ge 2 ] || usage
mode=$1
bin=$2
queues=(SBQ-HTM SBQ-CAS WF-Queue BQ-Original CC-Queue MS-Queue)

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

fail=0
case "$mode" in
  bench)
    [ $# -eq 2 ] || usage
    # The installed Google Benchmark takes --benchmark_min_time as a plain
    # number of seconds.
    "$bin" --benchmark_filter='/threads:[12]$' --benchmark_min_time=0.01 \
        --benchmark_format=console > "$tmpdir/out.txt"
    for q in "${queues[@]}"; do
      for t in 1 2; do
        if ! grep -q "^BM_Pairwise/$q/real_time/threads:$t " "$tmpdir/out.txt"; then
          echo "check_native_queues: $q did not run at $t threads" >&2
          fail=1
        fi
      done
    done
    ;;
  record)
    [ $# -eq 3 ] || usage
    checker=$3
    if "$bin" --record-ops="$tmpdir/junk" --record-threads=abc \
        > /dev/null 2>&1; then
      echo "check_native_queues: --record-threads=abc was accepted" >&2
      fail=1
    fi
    "$bin" --record-ops="$tmpdir/native" --record-threads=2 \
        --record-pairs=64 > /dev/null
    for q in "${queues[@]}"; do
      trace="$tmpdir/native-$q.ops"
      if [ ! -s "$trace" ]; then
        echo "check_native_queues: no trace for $q" >&2
        fail=1
      elif ! "$checker" --quiet "$trace"; then
        echo "check_native_queues: the $q trace fails the history checker" >&2
        fail=1
      fi
    done
    ;;
  *)
    usage
    ;;
esac

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_native_queues: $mode: all ${#queues[@]} queues passed"
