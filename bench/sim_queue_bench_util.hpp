// Shared dispatch for the figure benchmarks: construct one of the five
// evaluated queues (§6.1) on a fresh simulated machine and run a workload.
// Every simulated-queue driver takes one path through this header: its
// machine from sim_machine_config, its sweep from run_queue_sweep, and its
// --trace/--record-ops/--replay-ops tail from write_cell_artifacts.
//
// Queue selection is resolved once per sweep into a QueueKind enum (no
// per-cell string validation), and sweep cells — each an independent,
// deterministic simulation — are executed on the benchsupport parallel
// sweep pool (--jobs), keyed by (row, column, repeat) so the
// emitted tables are byte-identical to a serial run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "common/contention.hpp"
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sim_workload.hpp"
#include "benchsupport/table.hpp"
#include "replay/op_trace.hpp"
#include "replay/sim_replay.hpp"
#include "simqueue/sim_baskets_queue.hpp"
#include "simqueue/sim_cc_queue.hpp"
#include "simqueue/sim_faa_queue.hpp"
#include "simqueue/sim_ms_queue.hpp"
#include "simqueue/sim_sbq.hpp"

namespace sbq::bench {

// The workload spec and its phase runner live in
// src/benchsupport/sim_workload.hpp, the trace-header conversion in
// src/replay/sim_replay.hpp; drivers name them through sbq::bench.
using replay::spec_from_trace;
using simq::measure_spec;
using simq::prefill_spec;
using simq::run_spec;
using simq::SimRunResult;
using simq::Workload;
using simq::WorkloadSpec;

// The queue lineup of the paper's evaluation. We additionally expose the
// Michael–Scott queue (the CAS-retry ancestor) for context.
enum class QueueKind {
  kSbqHtm,
  kSbqCas,
  kWfQueue,
  kBqOriginal,
  kCcQueue,
  kMsQueue,
};

inline const std::vector<QueueKind>& evaluated_queue_kinds() {
  static const std::vector<QueueKind> kinds = {
      QueueKind::kSbqHtm,   QueueKind::kSbqCas,  QueueKind::kWfQueue,
      QueueKind::kBqOriginal, QueueKind::kCcQueue, QueueKind::kMsQueue};
  return kinds;
}

inline const char* queue_kind_name(QueueKind kind) {
  switch (kind) {
    case QueueKind::kSbqHtm: return "SBQ-HTM";
    case QueueKind::kSbqCas: return "SBQ-CAS";
    case QueueKind::kWfQueue: return "WF-Queue";
    case QueueKind::kBqOriginal: return "BQ-Original";
    case QueueKind::kCcQueue: return "CC-Queue";
    case QueueKind::kMsQueue: return "MS-Queue";
  }
  throw std::logic_error("bad QueueKind");
}

inline QueueKind queue_kind_from_name(const std::string& name) {
  for (QueueKind kind : evaluated_queue_kinds()) {
    if (name == queue_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown queue: " + name);
}

inline const std::vector<std::string>& queue_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (QueueKind kind : evaluated_queue_kinds()) {
      out.emplace_back(queue_kind_name(kind));
    }
    return out;
  }();
  return names;
}

// The injected-fault mapping every sim run shares (docs/robustness.md):
// `rate` splits 25/50/25 across capacity / interrupt / spurious aborts —
// interrupts dominate real non-conflict abort profiles — and a nonzero
// `jitter` adds bounded message jitter. A zero rate with zero jitter
// returns the disabled plan, so default invocations keep the
// byte-identical golden schedule.
inline sim::FaultPlan fault_plan(double rate, std::uint64_t seed,
                                 std::uint64_t jitter) {
  sim::FaultPlan plan;
  if (rate <= 0.0 && jitter == 0) return plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.capacity_rate = rate * 0.25;
  plan.interrupt_rate = rate * 0.50;
  plan.spurious_rate = rate * 0.25;
  if (jitter > 0) {
    plan.message_jitter_rate = 0.5;
    plan.max_message_jitter = jitter;
  }
  return plan;
}

// The machine every simulated-queue driver runs: `cores` split across
// `sockets`, with the shared options applied in one place:
//   --fault-rate/--fault-seed/--fault-jitter  the fault plan (fault_plan);
//   --sockets  the machine's socket count;
//   --cas-policy/--policy-seed  the TxCAS contention policy
//       (common/contention.hpp). An unknown name throws: sweeps must not
//       silently fall back to fixed.
// Default options leave everything else at MachineConfig{}, so default
// invocations keep the byte-identical golden schedule.
inline sim::MachineConfig sim_machine_config(const BenchOptions& opts,
                                             int cores, int sockets = 1) {
  sim::MachineConfig mcfg;
  mcfg.cores = cores;
  mcfg.sockets = opts.sockets > 0 ? opts.sockets : sockets;
  mcfg.fault_plan =
      fault_plan(opts.fault_rate, opts.fault_seed, opts.fault_jitter);
  if (!opts.cas_policy.empty()) {
    if (!contention_policy_from_name(opts.cas_policy.c_str(),
                                     mcfg.cas_policy.kind)) {
      throw std::invalid_argument(
          "--cas-policy needs fixed or adaptive-backoff");
    }
    mcfg.cas_policy.seed = opts.policy_seed;
  }
  return mcfg;
}

// Construct the queue `kind` prescribes on machine `m` and invoke
// fn(queue, consumer_id_offset) with it — the one place the QueueKind ->
// class mapping lives. A warmed queue reaches a forked machine by copy
// and rebind (WarmedWorkload).
template <typename Fn>
decltype(auto) with_queue(QueueKind kind, sim::Machine& m,
                          const WorkloadSpec& spec, Fn&& fn) {
  const int single_space_offset = spec.producers;
  switch (kind) {
    case QueueKind::kSbqHtm:
    case QueueKind::kSbqCas: {
      simq::SimSbq::Config qc;
      qc.enqueuers = spec.producers;
      qc.dequeuers = spec.consumers == 0 ? 1 : spec.consumers;
      qc.basket_capacity = std::max(spec.basket_capacity, spec.producers);
      qc.variant = kind == QueueKind::kSbqHtm ? simq::SbqVariant::kHtm
                                              : simq::SbqVariant::kCas;
      simq::SimSbq q(m, qc);
      return fn(q, /*consumer_id_offset=*/0);
    }
    case QueueKind::kWfQueue: {
      simq::SimFaaQueue q(m);
      return fn(q, single_space_offset);
    }
    case QueueKind::kBqOriginal: {
      simq::SimBasketsQueue q(m);
      q.set_dequeuers(spec.producers + spec.consumers + 1);
      return fn(q, single_space_offset);
    }
    case QueueKind::kCcQueue: {
      simq::SimCcQueue q(
          m, {.threads = spec.producers + spec.consumers + 1});
      return fn(q, single_space_offset);
    }
    case QueueKind::kMsQueue: {
      simq::SimMsQueue q(m);
      return fn(q, single_space_offset);
    }
  }
  throw std::logic_error("bad QueueKind");
}

// The figure cells' two phases, the default of the runners below: the
// un-measured prefill, then the measured workload. A driver with other
// phases passes its own callables with the same shapes:
//   warm(machine, queue, spec)                   runs once per warm-up;
//   measure(machine, queue, spec, offset) -> R   runs once per repeat.
struct PrefillPhase {
  template <typename QueueT>
  void operator()(sim::Machine& m, QueueT& q, const WorkloadSpec& spec) const {
    prefill_spec(m, q, spec);
  }
};

struct MeasurePhase {
  template <typename QueueT>
  SimRunResult operator()(sim::Machine& m, QueueT& q, const WorkloadSpec& spec,
                          int consumer_id_offset) const {
    return measure_spec(m, q, spec, consumer_id_offset);
  }
};

// Cold start: one fresh machine runs both phases of one cell. `spec` sizes
// the queue, so it is a WorkloadSpec or derives from one.
template <typename Spec, typename Warm = PrefillPhase,
          typename Measure = MeasurePhase>
auto run_queue_workload(QueueKind kind, const sim::MachineConfig& mcfg,
                        const Spec& spec, Warm warm = {},
                        Measure measure = {}) {
  sim::Machine m(mcfg);
  return with_queue(kind, m, spec, [&](auto& q, int offset) {
    warm(m, q, spec);
    return measure(m, q, spec, offset);
  });
}

// A cell warmed once, forkable many times: builds a machine, constructs
// the queue, runs the (repeat-independent) warm phase, and takes a
// Machine::snapshot. Each run_repeat() forks a machine from the snapshot,
// copies the prototype queue's host-side state, rebinds the copy to the
// fork, and runs the measured phase — byte-identical to run_queue_workload
// on the same cell, at a fraction of the warm-up cost. Const access is
// thread-safe: run_repeat only reads the captured snapshot and prototype,
// so sweep workers can fork repeats of one group concurrently.
template <typename Result = SimRunResult, typename Spec = WorkloadSpec>
class WarmedWorkload {
 public:
  WarmedWorkload() = default;

  template <typename Warm = PrefillPhase, typename Measure = MeasurePhase>
  WarmedWorkload(QueueKind kind, const sim::MachineConfig& mcfg,
                 const Spec& warm_spec, Warm warm = {}, Measure measure = {}) {
    auto machine = std::make_shared<sim::Machine>(mcfg);
    with_queue(kind, *machine, warm_spec, [&](auto& q, int offset) {
      using QueueT = std::remove_reference_t<decltype(q)>;
      auto proto = std::make_shared<QueueT>(std::move(q));
      warm(*machine, *proto, warm_spec);
      auto snap =
          std::make_shared<const sim::MachineSnapshot>(machine->snapshot());
      // `machine` stays captured: the prototype holds a Machine* into it
      // (never dereferenced after capture — every fork rebinds its copy —
      // but keeping it alive keeps the pointer valid by construction).
      run_ = [snap = std::move(snap), machine = std::move(machine),
              proto = std::move(proto), offset,
              measure = std::move(measure)](const Spec& spec) {
        auto m = sim::Machine::fork(*snap);
        QueueT fq(*proto);
        fq.rebind(*m);
        return measure(*m, fq, spec, offset);
      };
    });
  }

  // `spec` must match warm_spec in everything the warm phase reads (it is
  // already baked into the snapshot); only the measured phase runs.
  Result run_repeat(const Spec& spec) const { return run_(spec); }

 private:
  std::function<Result(const Spec&)> run_;
};

// (row × queue × repeat) sweep grid executed on the parallel pool.
// Results are keyed by cell index — at(row, queue, repeat) — so downstream
// aggregation is independent of completion order.
template <typename Result>
struct QueueSweepGrid {
  std::vector<Result> cells;
  std::size_t queues = 0;
  std::size_t repeats = 0;

  const Result& at(std::size_t row, std::size_t queue,
                   std::size_t repeat) const {
    return cells[(row * queues + queue) * repeats + repeat];
  }
};
using QueueSweepResults = QueueSweepGrid<SimRunResult>;

// Runs the standard figure grid: for each row value in `rows` (a thread
// count, an arrival rate, ...), each queue in `queues`, and each repeat,
// one cell. `make` maps (row value, repeat) -> {MachineConfig, spec} (the
// queue kind is applied by the runner); `warm` and `measure` are the
// cell's phases (PrefillPhase / MeasurePhase unless given), and `Result`
// is what `measure` returns. `row_done(row, results)` is called on the
// calling thread, in row order, as soon as a row's cells all finish —
// drivers use it to stream finished table rows.
//
// By default repeats of one (row, queue) group share a warmed snapshot:
// the group's warm phase runs once, and each repeat forks a machine from
// it (WarmedWorkload) — byte-identical to a cold start because the warm
// phase reads only repeat-independent spec fields (spec.prefill_seed,
// which `make` must keep constant across repeats). `cold_start` forces
// every cell to warm its own machine; drivers expose it as --cold-start so
// the equivalence stays checkable from the command line.
template <typename Result = SimRunResult, typename Row, typename MakeSpec,
          typename RowDone, typename Warm = PrefillPhase,
          typename Measure = MeasurePhase>
void run_queue_sweep(const std::vector<Row>& rows,
                     const std::vector<QueueKind>& queues, int repeats,
                     int jobs, MakeSpec make, RowDone row_done,
                     bool cold_start = false, Warm warm = {},
                     Measure measure = {}) {
  using Spec = typename std::invoke_result_t<MakeSpec&, const Row&,
                                             int>::second_type;
  QueueSweepGrid<Result> res;
  res.queues = queues.size();
  res.repeats = static_cast<std::size_t>(repeats);
  const std::size_t cells_per_row = res.queues * res.repeats;
  res.cells.resize(rows.size() * cells_per_row);
  if (cold_start) {
    run_sweep_cells(
        rows.size(), cells_per_row, jobs,
        [&](std::size_t i) {
          const std::size_t row = i / cells_per_row;
          const std::size_t queue = (i % cells_per_row) / res.repeats;
          const int repeat = static_cast<int>(i % res.repeats);
          const auto [mcfg, spec] = make(rows[row], repeat);
          res.cells[i] =
              run_queue_workload(queues[queue], mcfg, spec, warm, measure);
        },
        [&](std::size_t row) { row_done(row, res); });
    return;
  }
  // Fork path: one work item per (row, queue) group. Each group's slot in
  // `warmed` is touched by exactly one worker (run_sweep_groups contract),
  // and is released after the group's last repeat to bound live snapshots
  // to in-flight groups.
  std::vector<WarmedWorkload<Result, Spec>> warmed(rows.size() * res.queues);
  run_sweep_groups(
      rows.size(), res.queues, res.repeats, jobs,
      [&](std::size_t g) {
        const std::size_t row = g / res.queues;
        const auto [mcfg, spec] = make(rows[row], /*repeat=*/0);
        warmed[g] = WarmedWorkload<Result, Spec>(queues[g % res.queues], mcfg,
                                                 spec, warm, measure);
      },
      [&](std::size_t g, std::size_t c) {
        const std::size_t row = g / res.queues;
        const std::size_t queue = g % res.queues;
        const auto [mcfg, spec] = make(rows[row], static_cast<int>(c));
        res.cells[(row * res.queues + queue) * res.repeats + c] =
            warmed[g].run_repeat(spec);
        if (c + 1 == res.repeats) warmed[g] = WarmedWorkload<Result, Spec>();
      },
      [&](std::size_t row) { row_done(row, res); });
}

// ---------------------------------------------------------------------------
// --json / --trace support shared by the figure drivers
// (schema "sbq.bench/1"; see docs/observability.md).
// ---------------------------------------------------------------------------

// One per-cell record of the standard (threads × queue × repeat) grid:
// the cell's coordinates, its latency/throughput measurements, and the
// machine's counter snapshot.
inline Json queue_cell_json(int threads, QueueKind kind, int repeat,
                            const SimRunResult& r, double ns_per_cycle) {
  Json c = Json::object();
  c.set("threads", Json(threads));
  c.set("queue", Json(queue_kind_name(kind)));
  c.set("repeat", Json(repeat));
  c.set("enq_ops", Json(r.enq_ops));
  c.set("deq_ops", Json(r.deq_ops));
  c.set("enq_latency_ns", Json(r.enq_latency_ns(ns_per_cycle)));
  c.set("deq_latency_ns", Json(r.deq_latency_ns(ns_per_cycle)));
  c.set("throughput_mops", Json(r.throughput_mops(ns_per_cycle)));
  c.set("duration_cycles", Json(r.duration_cycles));
  c.set("counters", metrics_to_json(r.metrics));
  return c;
}

// Append one finished row's cells to the report in (queue, repeat) order.
// Called from row_done (rows arrive in order), so the artifact's cell order
// is deterministic regardless of --jobs.
inline void add_row_cells(BenchReport& report, std::size_t row, int threads,
                          const std::vector<QueueKind>& queues,
                          const QueueSweepResults& res, double ns_per_cycle) {
  for (std::size_t q = 0; q < queues.size(); ++q) {
    for (std::size_t r = 0; r < res.repeats; ++r) {
      report.add_cell(queue_cell_json(threads, queues[q], static_cast<int>(r),
                                      res.at(row, q, r), ns_per_cycle));
    }
  }
}

// Core count a replayed spec needs: producer/consumer cores for sim traces
// (mixed pins consumers at cores/2), one core per native thread.
inline int replay_min_cores(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case Workload::kProducerOnly:
      return spec.producers;
    case Workload::kConsumerOnly:
      return std::max(spec.producers, spec.consumers);
    case Workload::kMixed:
      return 2 * std::max(spec.producers, spec.consumers);
  }
  throw std::logic_error("bad workload");
}

struct ReplaySummary {
  replay::ReplayOutcome outcome;
  std::uint64_t trace_records = 0;
};

// --replay-ops: feed a recorded trace back as a sim workload under `mcfg`
// (cores bumped to the trace's need). The queue kind and workload shape
// come from the trace header, the machine model from the driver's flags —
// that is the point: the same logical history under any MachineConfig.
inline ReplaySummary run_replay_file(const std::string& path,
                                     sim::MachineConfig mcfg) {
  replay::OpTrace trace;
  if (!replay::read_op_trace_file(path, trace)) {
    throw std::invalid_argument("--replay-ops: cannot decode " + path);
  }
  const QueueKind kind = queue_kind_from_name(trace.queue);
  const WorkloadSpec spec = spec_from_trace(trace);
  mcfg.cores = std::max(mcfg.cores, replay_min_cores(spec));
  ReplaySummary summary;
  summary.trace_records = trace.records.size();
  sim::Machine m(mcfg);
  summary.outcome = with_queue(kind, m, spec, [&](auto& q, int offset) {
    return replay::replay_trace(m, q, trace, offset);
  });
  return summary;
}

// The shared driver tail: --trace, --record-ops and --replay-ops each
// re-run one representative cell (`kind` on `mcfg` with `spec`) outside the
// sweep:
//   --trace FILE       the cell with the event ring on, written as JSONL;
//   --record-ops FILE  the cell with op recording on, written as a
//                      versioned op trace (docs/replay.md). The host-side
//                      log append is schedule-invisible, so the recorded
//                      run's metrics equal the plain cell's;
//   --replay-ops FILE  the trace in FILE fed back under `mcfg`, with a
//                      deterministic one-line summary on stdout.
// Returns false on error (drivers exit 1).
inline bool write_cell_artifacts(const BenchOptions& opts, QueueKind kind,
                                 const sim::MachineConfig& mcfg,
                                 const WorkloadSpec& spec) {
  if (!opts.trace_path.empty()) {
    sim::MachineConfig traced = mcfg;
    traced.record_trace = true;
    sim::Machine m(traced);
    with_queue(kind, m, spec,
               [&](auto& q, int offset) { run_spec(m, q, spec, offset); });
    std::ofstream out(opts.trace_path);
    if (!out) {
      std::cerr << "--trace: cannot open " << opts.trace_path
                << " for writing\n";
      return false;
    }
    m.trace().write_jsonl(out);
    out.flush();
    if (!out) return false;
  }
  if (!opts.record_ops.empty()) {
    replay::OpTrace trace = replay::trace_header(spec, queue_kind_name(kind));
    sim::Machine m(mcfg);
    with_queue(kind, m, spec, [&](auto& q, int offset) {
      return replay::run_recorded_workload(m, q, spec, offset, trace);
    });
    if (!replay::write_op_trace_file(opts.record_ops, trace)) {
      std::cerr << "--record-ops: cannot write " << opts.record_ops << "\n";
      return false;
    }
  }
  if (!opts.replay_ops.empty()) {
    try {
      const ReplaySummary s = run_replay_file(opts.replay_ops, mcfg);
      std::cout << "replay: " << s.trace_records << " trace records, "
                << s.outcome.run.enq_ops << " enqueues, "
                << s.outcome.run.deq_ops << " dequeues replayed, "
                << s.outcome.value_mismatches << " value mismatches\n";
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace sbq::bench
