#!/usr/bin/env bash
# Verify that a driver fails its run when its --trace file cannot be
# written: it must exit nonzero and say `--trace: cannot write` on stderr,
# so a run refused for some other reason does not pass.
#
# Usage: scripts/check_unwritable_trace.sh <driver binary> [driver args...]
# The driver runs with its args plus --trace /nonexistent-dir/trace.jsonl.
set -uo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <driver binary> [args...]" >&2
  exit 2
fi
if err=$("$@" --trace /nonexistent-dir/trace.jsonl 2>&1 >/dev/null); then
  echo "check_unwritable_trace: $1 exited 0 with an unwritable --trace" >&2
  exit 1
fi
if [[ $err != *"--trace: cannot write"* ]]; then
  echo "check_unwritable_trace: $1 failed without saying why:" >&2
  printf '%s\n' "$err" >&2
  exit 1
fi
echo "check_unwritable_trace: $1 refused the unwritable trace"
