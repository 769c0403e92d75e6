#!/usr/bin/env bash
# Capture the simulator performance baseline into BENCH_sim.json and the
# native one into BENCH_native.json.
#
# Records what benchmark/ does not cover: the wall-clock of one 512-core
# fig5 cell, the contention-policy sweep and the open-loop service_latency
# driver (docs/service.md), best of $RUNS runs each, plus the steady-phase
# rates of the two allocation-gated microbenches (engine_microbench, both
# its closure and its typed-event leg, and sim_microbench) at their gate
# sizes. The fig5/fig6/fig7 sweeps are timed
# by benchmark/ (sim-enqueue, sim-dequeue-prefilled), which has a
# regression rule. Results land in BENCH_sim.json at the repo root.
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

for bin in fig5_enqueue ablation_delay_sweep service_latency \
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
    # Contention-policy default (docs/architecture.md "Contention policy
    # layer"): every timed leg except the dedicated policy sweep runs the
    # default policy, so the baseline records which one that is. Read from
    # ContentionPolicyParams' initializer — kFixed keeps the goldens
    # byte-identical, and this record catches an accidental default flip.
    cas_policy = re.search(
        r"ContentionPolicyKind kind = ContentionPolicyKind::k(\w+)",
        open("src/common/contention.hpp").read()).group(1)
    cas_policy = re.sub(r"(?<!^)([A-Z])", r"-\1", cas_policy).lower()
    return {"interconnect_model": model,
            "cas_policy_default": cas_policy,
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

# Contention-policy leg: the delay-sweep ablation's opt-in policy
# dimension, adaptive-backoff vs the fixed default at the paper's optimal
# intra-txn delay (675 cycles). The JSON artifact additionally supplies the
# throughput comparison at the highest-contention cell — the adaptive
# policy earning its keep (or not) is part of the baseline record.
POLICY_ARGS = ["--threads", "2,8,16,32", "--ops", "100", "--jobs", "1",
               "--policies", "fixed,adaptive-backoff"]

def run_policy_sweep():
    exe = os.path.join(build, "bench", "ablation_delay_sweep")
    samples = []
    cells = []
    for _ in range(runs):
        with tempfile.NamedTemporaryFile(suffix=".json") as f:
            t0 = time.monotonic()
            run_checked([exe, *POLICY_ARGS, "--json", f.name])
            samples.append(round(time.monotonic() - t0, 3))
            cells = json.load(open(f.name))["cells"]
    pol = [c for c in cells if "policy" in c]
    top = max(c["threads"] for c in pol)
    tput = {c["policy"]: c["throughput_mops"]
            for c in pol if c["threads"] == top}
    leg = {"args": " ".join(POLICY_ARGS), "runs_s": samples,
           "best_s": min(samples), "top_cell_threads": top,
           "top_cell_throughput_mops":
               {k: round(v, 3) for k, v in tput.items()}}
    if tput.get("fixed"):
        leg["adaptive_backoff_vs_fixed"] = round(
            tput.get("adaptive-backoff", 0.0) / tput["fixed"], 2)
    return leg

def run_micro(drv, args):
    exe = os.path.join(build, "bench", drv)
    with tempfile.NamedTemporaryFile(suffix=".json") as f:
        # A nonzero exit IS the gate: a steady phase allocated.
        run_checked([exe, *args, "--json", f.name])
        cells = json.load(open(f.name))["cells"]
    steady = [c for c in cells if str(c.get("phase", "")).startswith("steady")]
    out = {"args": " ".join(args)}
    # engine_microbench runs a closure leg and a typed-event leg; the
    # closure leg keeps the unprefixed key so it stays comparable with
    # baselines taken before the typed leg existed.
    for leg in dict.fromkeys(c.get("leg", "closure") for c in steady):
        key = ("" if leg == "closure" else leg + "_") + "steady_mevents_per_s"
        out[key] = round(max(c["events_per_sec"] for c in steady
                             if c.get("leg", "closure") == leg) / 1e6, 2)
    alloc_keys = [k for k in ("allocs", "slab_refills") if k in steady[0]]
    out["steady_allocs"] = sum(int(c[k]) for c in steady for k in alloc_keys)
    return out

report = {
    "schema": "sbq.bench-baseline/1",
    # cpus is the host's CPU count; nproc is how many of them this process
    # may run on (what `nproc` prints), the bound on any parallel speedup.
    "machine": {"platform": platform.platform(),
                "cpus": os.cpu_count(),
                "nproc": len(os.sched_getaffinity(0))},
    "sim_config": sim_config(),
    "fig5_512c": run_timed("fig5_enqueue", FIG5_512C_ARGS),
    "policy_sweep": run_policy_sweep(),
    "service_latency": run_timed("service_latency", SERVICE_ARGS),
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
    for leg in ("fig5_512c", "policy_sweep", "service_latency"):
        old = before.get(leg)
        # A leg whose arguments changed times a different run.
        if old and "best_s" in old and old.get("args") == report[leg]["args"]:
            report[leg]["speedup_vs_before"] = round(
                old["best_s"] / report[leg]["best_s"], 2)

with open("BENCH_sim.json", "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(json.dumps({leg: report[leg]["best_s"]
                  for leg in ("fig5_512c", "policy_sweep", "service_latency")},
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
