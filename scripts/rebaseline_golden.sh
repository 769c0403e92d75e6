#!/usr/bin/env bash
# Regenerate or verify the golden stdout+JSON baselines of every figure and
# ablation driver (tests/golden/<driver>.{stdout,json}), captured at the
# smoke sweep arguments (--threads 1,2 --ops 20 --repeats 1 --jobs 2, the
# drivers' default seed 42) without the flags a driver does not read, which
# it refuses (smoke_args below; bench/CMakeLists.txt runs the same). Driver
# output is fully deterministic, so the baselines are compared
# byte-for-byte.
#
# The goldens pin the exact simulated schedule: any schedule-visible change
# (invalidation delivery order, interconnect timing, workload seeding)
# surfaces as a diff in every affected driver. After an intentional change,
# run this script with no arguments, inspect `git diff tests/golden/`,
# justify the drift in the PR, and commit the regenerated files. The
# `golden_rebaseline` ctest label runs the --check modes.
#
# Usage:
#   scripts/rebaseline_golden.sh                    # regenerate all goldens
#   scripts/rebaseline_golden.sh --check [drv...]   # verify; exit 1 on drift
#   scripts/rebaseline_golden.sh --check-cold-start fig6_dequeue
#       # re-run with --cold-start and verify against the same (fork-path)
#       # golden — the checkpoint/fork byte-identity gate
#   scripts/rebaseline_golden.sh --check-fault-off fig5_enqueue
#       # re-run with fault injection explicitly disabled (--fault-rate 0
#       # --fault-jitter 0 --fault-seed 1) and verify against the same
#       # golden — the golden-safety gate for the fault-injection plumbing;
#       # with no driver named, every driver that reads the fault flags
#
# Env: BUILD_DIR (default: build).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
GOLDEN_DIR=tests/golden
# The smoke arguments of driver $1.
smoke_args() {
  case $1 in
    fig2_coherence_dynamics) echo --threads 1 --jobs 2 ;;
    fig3_tripped_writer) echo --jobs 2 ;;
    # These split each thread total evenly into producers and consumers,
    # so they refuse the odd total 1.
    fig7_mixed | ablation_uarch_fix)
      echo --threads 2 --ops 20 --repeats 1 --jobs 2 ;;
    ablation_delay_sweep | ablation_fault_sweep)
      echo --threads 1,2 --ops 20 --jobs 2 ;;
    ablation_numa) echo --ops 20 --jobs 2 ;;
    ablation_basket_size) echo --ops 20 --repeats 1 --jobs 2 ;;
    *) echo --threads 1,2 --ops 20 --repeats 1 --jobs 2 ;;
  esac
}
DRIVERS=(
  fig1_txcas_vs_faa
  fig2_coherence_dynamics
  fig3_tripped_writer
  fig5_enqueue
  fig6_dequeue
  fig7_mixed
  ablation_delay_sweep
  ablation_numa
  ablation_basket_size
  ablation_uarch_fix
  ablation_striped_basket
  ablation_fault_sweep
)
# The drivers above that read the fault flags. fig2, fig3 and ablation_numa
# build fixed machines and refuse them; ablation_fault_sweep sweeps its own
# rates and refuses --fault-rate.
FAULT_DRIVERS=(
  fig1_txcas_vs_faa
  fig5_enqueue
  fig6_dequeue
  fig7_mixed
  ablation_delay_sweep
  ablation_basket_size
  ablation_uarch_fix
  ablation_striped_basket
)

mode=write
extra_args=()
default_drivers=("${DRIVERS[@]}")
case "${1:-}" in
  --check)
    mode=check
    shift
    ;;
  --check-cold-start)
    mode=check
    extra_args=(--cold-start)
    shift
    ;;
  --check-fault-off)
    mode=check
    extra_args=(--fault-rate 0 --fault-jitter 0 --fault-seed 1)
    default_drivers=("${FAULT_DRIVERS[@]}")
    shift
    ;;
esac

drivers=("$@")
if [ ${#drivers[@]} -eq 0 ]; then
  drivers=("${default_drivers[@]}")
fi

require_built() {
  if [ ! -x "$1" ]; then
    echo "rebaseline_golden: $1 not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
}

# Names of every (driver, aspect) pair that drifted, so the final FAILED
# line says exactly what to look at instead of just "something diverged".
failed=()

# compare_golden <driver> <label> <stdout-file> <json-file>
# Byte-compares a run against tests/golden/<driver>.{stdout,json}.
compare_golden() {
  local drv=$1 label=$2 out=$3 json=$4
  if ! diff -u "$GOLDEN_DIR/$drv.stdout" "$out"; then
    echo "rebaseline_golden: $label: stdout drifted from $GOLDEN_DIR/$drv.stdout" >&2
    failed+=("$label:stdout")
  fi
  if ! diff -u "$GOLDEN_DIR/$drv.json" "$json"; then
    echo "rebaseline_golden: $label: --json drifted from $GOLDEN_DIR/$drv.json" >&2
    failed+=("$label:json")
  fi
}

for drv in "${drivers[@]}"; do
  exe="$BUILD_DIR/bench/$drv"
  require_built "$exe"
  tmp_out=$(mktemp)
  tmp_json=$(mktemp)
  read -r -a args <<< "$(smoke_args "$drv")"
  if ! "$exe" "${args[@]}" ${extra_args[@]+"${extra_args[@]}"} \
      --json "$tmp_json" > "$tmp_out"; then
    echo "rebaseline_golden: $drv${extra_args[0]:+ ${extra_args[*]}}: driver exited nonzero at the smoke arguments" >&2
    exit 1
  fi
  if [ "$mode" = write ]; then
    mkdir -p "$GOLDEN_DIR"
    mv "$tmp_out" "$GOLDEN_DIR/$drv.stdout"
    mv "$tmp_json" "$GOLDEN_DIR/$drv.json"
    echo "rebaseline_golden: wrote $GOLDEN_DIR/$drv.{stdout,json}"
  else
    label="$drv${extra_args[0]:+ ${extra_args[*]}}"
    compare_golden "$drv" "$label" "$tmp_out" "$tmp_json"
    rm -f "$tmp_out" "$tmp_json"
  fi
done

if [ "$mode" = check ]; then
  if [ ${#failed[@]} -ne 0 ]; then
    echo "rebaseline_golden: FAILED — drifted: ${failed[*]} — run" \
         "scripts/rebaseline_golden.sh and commit tests/golden/ if the" \
         "drift is intentional" >&2
    exit 1
  fi
  echo "rebaseline_golden: ${#drivers[@]} driver(s) match the goldens"
fi
