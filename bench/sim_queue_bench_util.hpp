// Shared dispatch for the figure benchmarks: construct one of the five
// evaluated queues (§6.1) on a fresh simulated machine and run a workload.
// Every simulated-queue driver takes one path through this header: its
// machine from sim_machine_config, its sweep from run_queue_sweep, and its
// --trace/--record-ops/--replay-ops tail from write_cell_artifacts. Every
// other simulator driver sweeps with run_grid and traces with trace_cell.
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
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sim_workload.hpp"
#include "benchsupport/table.hpp"
#include "common/rng.hpp"
#include "queues/queue_kind.hpp"
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

// The queue lineup lives in queues/queue_kind.hpp, shared with the native
// queues (queues/native_lineup.hpp); drivers name it through sbq::bench.
using sbq::evaluated_queue_kinds;
using sbq::queue_kind_from_name;
using sbq::queue_kind_name;
using sbq::queue_names;
using sbq::QueueKind;

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
//   --sockets  the machine's socket count.
// Default options leave everything else at MachineConfig{}, so default
// invocations keep the byte-identical golden schedule.
inline sim::MachineConfig sim_machine_config(const BenchOptions& opts,
                                             int cores, int sockets = 1) {
  sim::MachineConfig mcfg;
  mcfg.cores = cores;
  mcfg.sockets = opts.sockets > 0 ? opts.sockets : sockets;
  mcfg.fault_plan =
      fault_plan(opts.fault_rate, opts.fault_seed, opts.fault_jitter);
  return mcfg;
}

// --trace: writes machine `m`'s event trace to `path` as JSONL. Returns
// false, after saying so on stderr, if the file cannot be written.
inline bool write_trace_file(sim::Machine& m, const std::string& path) {
  std::ofstream out(path);
  m.trace().write_jsonl(out);
  out.flush();
  if (!out) std::cerr << "--trace: cannot write " << path << "\n";
  return static_cast<bool>(out);
}

// `mcfg` with the machine's event ring on.
inline sim::MachineConfig with_event_ring(sim::MachineConfig mcfg) {
  mcfg.record_trace = true;
  return mcfg;
}

// --trace FILE: re-runs one representative cell of a driver outside its
// sweep — run(machine) on a machine built from `mcfg` with the event ring
// on — and writes the ring to `path` as JSONL. An empty path runs nothing.
// Returns false, after saying so on stderr, if the file cannot be written
// (drivers exit 1).
template <typename Run>
bool trace_cell(const std::string& path, const sim::MachineConfig& mcfg,
                Run run) {
  if (path.empty()) return true;
  sim::Machine m(with_event_ring(mcfg));
  run(m);
  return write_trace_file(m, path);
}

// Integer cycle counts of a contended-word loop: the totals stay far below
// 2^53, so converting the final sums is exact.
struct LoopStats {
  std::uint64_t latency_cycles = 0;
  std::uint64_t ops = 0;
  std::uint64_t success = 0;
};

// One core's TxCAS loop on the contended word `x` (Figure 1, the §4.1 delay
// sweep): an initial think of 1..32 cycles, then per op a load, a TxCAS
// v -> v+1 under `tx`, and a think of 1..8 cycles.
inline sim::Task<void> txcas_loop(sim::Machine& m, int core, sim::Addr x,
                                  sim::Value ops, std::uint64_t seed,
                                  sim::TxCasConfig tx,
                                  std::shared_ptr<LoopStats> st) {
  Xoshiro256 rng(seed);
  auto& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  for (sim::Value i = 0; i < ops; ++i) {
    const sim::Value v = co_await c.load(x);
    const sim::Time start = c.now();
    const bool ok = co_await c.txcas(x, v, v + 1, tx);
    st->latency_cycles += c.now() - start;
    ++st->ops;
    if (ok) ++st->success;
    co_await c.think(1 + rng.next_below(8));
  }
}

// The thread totals of a mixed-workload driver (fig7, ablation_uarch_fix):
// each splits into as many producers as consumers, at least one each, so
// an odd total or one below 2 is refused rather than rounded down.
inline std::vector<int> mixed_totals(std::vector<int> totals) {
  for (const int total : totals) {
    if (total < 2 || total % 2 != 0) {
      throw std::invalid_argument("--threads needs even totals >= 2, got " +
                                  std::to_string(total));
    }
  }
  return totals;
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

// Cold start: one fresh machine runs both phases of one cell, the reference
// the fork path (WarmedWorkload) must match byte for byte. `spec` sizes the
// queue, so it is a WorkloadSpec or derives from one.
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

// Runs the standard figure grid: for each row value in `rows` (a thread
// count, an arrival rate, ...), each queue in `queues`, and each repeat,
// one cell. `make` maps (row value, repeat) -> {MachineConfig, spec} (the
// queue kind is applied by the runner); `warm` and `measure` are the
// cell's phases (PrefillPhase / MeasurePhase unless given), and `Result`
// is what `measure` returns. `row_done(row, grid)` gets the
// SweepGrid<Result> of (row, queue, repeat) cells on the calling thread, in
// row order, as soon as a row's cells all finish — drivers use it to
// stream finished table rows.
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
  const auto nrep = static_cast<std::size_t>(repeats);
  if (cold_start) {
    run_grid(
        rows.size(), queues.size(), nrep, jobs,
        [&](std::size_t row, std::size_t queue, std::size_t rep) -> Result {
          const auto [mcfg, spec] = make(rows[row], static_cast<int>(rep));
          return run_queue_workload(queues[queue], mcfg, spec, warm, measure);
        },
        row_done);
    return;
  }
  // Fork path: one work item per (row, queue) group. Each group's slot in
  // `warmed` is touched by exactly one worker (run_sweep_groups contract),
  // and is released after the group's last repeat to bound live snapshots
  // to in-flight groups.
  SweepGrid<Result> res{
      std::vector<Result>(rows.size() * queues.size() * nrep), queues.size(),
      nrep};
  std::vector<WarmedWorkload<Result, Spec>> warmed(rows.size() * res.columns);
  run_sweep_groups(
      rows.size(), res.columns, res.repeats, jobs,
      [&](std::size_t g) {
        const auto [mcfg, spec] = make(rows[g / res.columns], /*repeat=*/0);
        warmed[g] = WarmedWorkload<Result, Spec>(queues[g % res.columns], mcfg,
                                                 spec, warm, measure);
      },
      [&](std::size_t g, std::size_t rep) {
        const std::size_t row = g / res.columns;
        const auto [mcfg, spec] = make(rows[row], static_cast<int>(rep));
        res.at(row, g % res.columns, rep) = warmed[g].run_repeat(spec);
        if (rep + 1 == res.repeats) warmed[g] = WarmedWorkload<Result, Spec>();
      },
      [&](std::size_t row) { row_done(row, std::as_const(res)); });
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
                          const SweepGrid<SimRunResult>& res,
                          double ns_per_cycle) {
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
  if (!trace_cell(opts.trace_path, mcfg, [&](sim::Machine& m) {
        with_queue(kind, m, spec,
                   [&](auto& q, int offset) { run_spec(m, q, spec, offset); });
      })) {
    return false;
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
