#!/usr/bin/env bash
# Verify a sweep driver's warm-start path: repeats forked from one warmed
# snapshot must be byte-identical to cold-starting every cell. Runs the
# driver twice with the given arguments, once with --cold-start, and
# compares stdout and the --json artifact byte-for-byte.
#
# Usage: scripts/check_cold_start_identity.sh <driver binary> [driver args...]
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <driver binary> [args...]" >&2
  exit 2
fi
bin=$1
shift
if [ ! -x "$bin" ]; then
  echo "check_cold_start_identity: $bin not built" >&2
  exit 1
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

"$bin" "$@" --json "$tmpdir/fork.json" > "$tmpdir/fork.stdout"
"$bin" "$@" --cold-start --json "$tmpdir/cold.json" > "$tmpdir/cold.stdout"

fail=0
if ! diff -u "$tmpdir/fork.stdout" "$tmpdir/cold.stdout"; then
  echo "check_cold_start_identity: stdout differs under --cold-start" >&2
  fail=1
fi
if ! diff -u "$tmpdir/fork.json" "$tmpdir/cold.json"; then
  echo "check_cold_start_identity: --json differs under --cold-start" >&2
  fail=1
fi
if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_cold_start_identity: $(basename "$bin") forks byte-identically to cold starts"
