#!/usr/bin/env bash
# Capture the simulator performance baseline into BENCH_sim.json and the
# native one into BENCH_native.json.
#
# Records what benchmark/ does not cover: the wall-clock of one 512-core
# fig5 cell, of the open-loop service_latency driver (docs/service.md) and
# of the default fig5, fig6 and fig7 runs (no flags: the paper's thread
# sweeps at the default --jobs, one job per CPU), best of $RUNS runs each,
# plus the steady-phase rates of the two allocation-gated microbenches
# (engine_microbench and sim_microbench) at their gate sizes, also best of
# $RUNS runs. benchmark/ times smaller fig5/fig6
# shapes under a regression rule (sim-enqueue, sim-dequeue-prefilled); the
# default runs here are what a reader of the figures waits for. Results
# land in BENCH_sim.json at the repo root.
#
# BENCH_native.json holds the Google Benchmark JSON of native_primitives
# and native_queues at 1, 2 and 4 threads, with the host's CPU count and
# model, the ns per cpu_relax the process calibrated (the unit in which
# every native §4 delay is spent, see src/common/spin.cpp) and whether
# the build ran RTM transactions (`rtm`).
#
# Usage:
#   scripts/bench_baseline.sh [before.json]
#
#   before.json — optional earlier BENCH_sim.json; its legs are embedded
#                 under "before" (without its own "before", so the history
#                 stays one level deep), with a speedup for every leg both
#                 files time.
#
# Env: BUILD_DIR (default: build), RUNS (default: 3).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
RUNS=${RUNS:-3}
BEFORE=${1:-}

for bin in fig5_enqueue fig6_dequeue fig7_mixed service_latency \
           engine_microbench sim_microbench native_primitives native_queues; do
  if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
    echo "bench_baseline: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

python3 - "$BUILD_DIR" "$RUNS" "$BEFORE" <<'EOF'
import json, os, platform, re, subprocess, sys, tempfile, time

build, runs, before_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def sim_config():
    # The machine-model configuration the timed drivers run under: the
    # MachineConfig defaults, read from the source of truth so the record
    # can't drift from the code.
    src = open("src/sim/types.hpp").read()
    model = re.search(r"interconnect_model\s*=\s*InterconnectModel::k(\w+)",
                      src).group(1).lower()
    occupancy = int(re.search(r"link_occupancy\s*=\s*(\d+)", src).group(1))
    # Robustness defaults (docs/robustness.md): the runtime invariant
    # checker and the fault-injection master switch. Both must default to
    # off for this baseline to be comparable across builds.
    invariants = re.search(r"check_invariants\s*=\s*(true|false)",
                           src).group(1) == "true"
    faults = re.search(r"bool enabled\s*=\s*(true|false)",
                       src).group(1) == "true"
    # Snapshot blob schema version, read from its source of truth.
    snapshot_schema = int(re.search(
        r"kSnapshotSchemaVersion = (\d+)",
        open("src/sim/serialize.hpp").read()).group(1))
    return {"interconnect_model": model,
            "link_occupancy": occupancy,
            "check_invariants": invariants,
            "fault_injection_default": faults,
            "snapshot_schema_version": snapshot_schema,
            # Load model of the timed service leg (docs/service.md), so the
            # baseline records what traffic its service numbers were taken
            # under.
            "service_arrival": SERVICE_ARRIVAL,
            "service_rates_per_kcycle": SERVICE_RATES}

def run_checked(cmd):
    # A driver that dies mid-baseline must fail the whole capture loudly,
    # naming the culprit — a partial BENCH_sim.json is worse than none.
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if r.returncode != 0:
        sys.exit("bench_baseline: driver %s exited with status %d (args: %s)"
                 % (os.path.basename(cmd[0]), r.returncode,
                    " ".join(cmd[1:])))

def run_timed(drv, args):
    exe = os.path.join(build, "bench", drv)
    samples = []
    for _ in range(runs):
        t0 = time.monotonic()
        run_checked([exe, *args])
        samples.append(round(time.monotonic() - t0, 3))
    return {"args": " ".join(args), "runs_s": samples,
            "best_s": min(samples)}

# Open-loop service leg (docs/service.md): poisson arrivals across an
# underloaded / near-capacity / overloaded rate triple, default 4p/2c
# broker with a depth-64 drop gate. Poisson is service_latency's only
# arrival process, so SERVICE_ARRIVAL is recorded, not passed.
SERVICE_ARRIVAL = "poisson"
SERVICE_RATES = [2, 8, 32]
SERVICE_ARGS = ["--rates", ",".join(str(r) for r in SERVICE_RATES),
                "--ops", "200", "--repeats", "2", "--jobs", "1"]

# The largest machine any driver builds: one fig5-style row at 512
# simulated cores (2 sockets x 256).
FIG5_512C_ARGS = ["--threads", "512", "--ops", "20", "--sockets", "2",
                  "--repeats", "1", "--jobs", "1"]

# The default figure runs: no flags at all.
FIGURES = ("fig5_enqueue", "fig6_dequeue", "fig7_mixed")

def run_micro(drv, args):
    # The fastest steady phase over $RUNS runs: one run of a sub-second
    # microbench on a shared host reads tens of percent low.
    exe = os.path.join(build, "bench", drv)
    steady = []
    for _ in range(runs):
        with tempfile.NamedTemporaryFile(suffix=".json") as f:
            # A nonzero exit IS the gate: a steady phase allocated.
            run_checked([exe, *args, "--json", f.name])
            cells = json.load(open(f.name))["cells"]
        steady += [c for c in cells
                   if str(c.get("phase", "")).startswith("steady")]
    alloc_keys = [k for k in ("allocs", "slab_refills") if k in steady[0]]
    return {"args": " ".join(args),
            "runs": runs,
            "steady_mevents_per_s": round(
                max(c["events_per_sec"] for c in steady) / 1e6, 2),
            "steady_allocs": sum(int(c[k]) for c in steady
                                 for k in alloc_keys)}

report = {
    "schema": "sbq.bench-baseline/1",
    # cpus is the host's CPU count; nproc is how many of them this process
    # may run on (what `nproc` prints), the bound on any parallel speedup.
    "machine": {"platform": platform.platform(),
                "cpus": os.cpu_count(),
                "nproc": len(os.sched_getaffinity(0))},
    "sim_config": sim_config(),
    "fig5_512c": run_timed("fig5_enqueue", FIG5_512C_ARGS),
    "service_latency": run_timed("service_latency", SERVICE_ARGS),
    "figures_default": {drv: run_timed(drv, []) for drv in FIGURES},
    "microbench": {
        "engine_microbench": run_micro(
            "engine_microbench", ["--ops", "200000", "--repeats", "2"]),
        "sim_microbench": run_micro(
            "sim_microbench",
            ["--threads", "4", "--ops", "250", "--repeats", "2"]),
    },
}

if before_path:
    before = json.load(open(before_path))
    before.pop("before", None)
    report["before"] = before
    legs = [(report[leg], before.get(leg))
            for leg in ("fig5_512c", "service_latency")]
    legs += [(report["figures_default"][drv],
              before.get("figures_default", {}).get(drv)) for drv in FIGURES]
    for new, old in legs:
        # A leg whose arguments changed times a different run.
        if old and "best_s" in old and old.get("args") == new["args"]:
            new["speedup_vs_before"] = round(old["best_s"] / new["best_s"], 2)

with open("BENCH_sim.json", "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(json.dumps({**{leg: report[leg]["best_s"]
                     for leg in ("fig5_512c", "service_latency")},
                  **{drv: leg["best_s"]
                     for drv, leg in report["figures_default"].items()}},
                 indent=2))

# Native leg. The installed Google Benchmark takes --benchmark_min_time as
# a plain number of seconds; it rejects the "0.2s" form.
NATIVE_MIN_TIME_S = "0.2"
# Multi-threaded benchmarks at 1, 2 and 4 threads, plus the single-thread
# ones (the spin_for_ns delays, the RTM probe).
NATIVE_FILTER = "/threads:[124]$|^BM_SpinForNs|^BM_TxCasHardwareAvailable"

def run_gbench(drv):
    exe = os.path.join(build, "bench", drv)
    with tempfile.NamedTemporaryFile(suffix=".json") as f:
        run_checked([exe, "--benchmark_min_time=" + NATIVE_MIN_TIME_S,
                     "--benchmark_filter=" + NATIVE_FILTER,
                     "--benchmark_out=" + f.name,
                     "--benchmark_out_format=json"])
        out = json.load(open(f.name))
    out["context"].pop("host_name", None)
    return out

def cpu_model():
    # The first CPU's name, family and model number (x86 /proc/cpuinfo):
    # the name alone can be as vague as "Intel(R) Xeon(R) Processor".
    keys = {"model name": "cpu_model", "cpu family": "cpu_family",
            "model": "cpu_model_number"}
    out = {}
    try:
        for line in open("/proc/cpuinfo"):
            k, _, v = line.partition(":")
            k = k.strip()
            if k in keys and keys[k] not in out:
                out[keys[k]] = v.strip()
            if not line.strip() and out:
                break
    except OSError:
        pass
    out.setdefault("cpu_model", platform.processor() or "unknown")
    return out

native = {"schema": "sbq.bench-native/1",
          "machine": {"platform": platform.platform(),
                      "cpus": os.cpu_count(),
                      "nproc": len(os.sched_getaffinity(0)),
                      **cpu_model()},
          "threads": [1, 2, 4],
          "min_time_s": float(NATIVE_MIN_TIME_S)}
notes = []
for drv in ("native_primitives", "native_queues"):
    native[drv] = run_gbench(drv)
    if native[drv]["context"].get("library_build_type") == "debug":
        notes.append("%s: the Google Benchmark library is a debug build "
                     "and warns that its timings may be affected; the "
                     "timed code is built as this tree's build type." % drv)
native["ns_per_relax"] = float(
    native["native_primitives"]["context"]["ns_per_relax"])
native["rtm"] = native["native_primitives"]["context"]["rtm"] == "true"
if not native["rtm"]:
    notes.append("No RTM in this run: TxCAS is one plain CAS with no delay, "
                 "so the SBQ-HTM rows measure SBQ with a plain CAS "
                 "(SBQ-CAS adds the intra-transaction delay first).")
native["notes"] = notes

with open("BENCH_native.json", "w") as f:
    json.dump(native, f, indent=2)
    f.write("\n")
print(json.dumps({"ns_per_relax": native["ns_per_relax"],
                  "rtm": native["rtm"]}))
EOF
echo "bench_baseline: wrote BENCH_sim.json and BENCH_native.json"
