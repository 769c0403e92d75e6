// Figure 3 / §3.4: the tripped-writer problem and the §3.4.1 fix.
//
// A writer TxCASes a line shared by several cores on a *remote* socket, so
// its commit window (waiting for cross-socket invalidation acks) is wide.
// A reader issues a GetS at a configurable offset into that window. We
// sweep the reader's arrival offset and report, with the microarchitectural
// fix off and on:
//   * whether the writer was tripped (aborted by the Fwd-GetS),
//   * the writer's total TxCAS latency,
//   * how many transactional attempts the writer needed.
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "sim/machine.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq {
namespace {

using sim::Addr;
using sim::Machine;
using sim::Task;
using sim::Time;
using sim::Value;

struct Outcome {
  bool tripped = false;
  std::uint64_t stalled = 0;
  std::uint64_t attempts = 0;
  double writer_latency_ns = 0;
  sim::MetricsSnapshot metrics;
};

sim::MachineConfig scenario_config(bool fix) {
  sim::MachineConfig mcfg;
  mcfg.cores = 10;
  mcfg.sockets = 2;  // cores 0-4 socket 0, cores 5-9 socket 1
  mcfg.uarch_fix = fix;
  return mcfg;
}

// One scenario on `m`, a machine built from scenario_config.
Outcome run_scenario(Machine& m, Time reader_offset) {
  const Addr x = m.alloc();

  // Sharers on the remote socket: their Inv-Acks must cross the socket
  // boundary, widening the writer's commit window.
  for (int c = 5; c < 10; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      co_await m.core(c).load(x);
    }(m, c, x));
  }
  m.run();

  sim::TxCasConfig tx;
  tx.intra_txn_delay = 10;
  tx.post_abort_delay = 90;
  auto done_at = std::make_shared<Time>(0);
  auto started_at = std::make_shared<Time>(0);
  m.spawn([](Machine& m, Addr x, sim::TxCasConfig tx,
             std::shared_ptr<Time> start, std::shared_ptr<Time> end)
              -> Task<void> {
    co_await m.core(0).load(x);
    *start = m.engine().now();
    co_await m.core(0).txcas(x, 0, 1, tx);
    *end = m.engine().now();
  }(m, x, tx, started_at, done_at));
  m.spawn([](Machine& m, Addr x, Time offset) -> Task<void> {
    co_await m.core(1).think(offset);
    co_await m.core(1).load(x);
  }(m, x, reader_offset));
  m.run();

  Outcome o;
  const sim::HtmCounters& writer = m.stats().core_htm(0);
  o.tripped = writer.aborts[static_cast<std::size_t>(
                  sim::AbortCause::kTrippedWriter)] > 0;
  o.stalled = writer.uarch_fix_stalls;
  o.attempts = writer.attempts;
  o.writer_latency_ns =
      static_cast<double>(*done_at - *started_at) * ns_per_cycle();
  o.metrics = m.metrics();
  return o;
}

}  // namespace
}  // namespace sbq

int main(int argc, char** argv) try {
  using namespace sbq;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "fig3_tripped_writer");

  std::cout << "# Figure 3: tripped writer — remote reader's GetS arriving "
               "inside the writer's\n# cross-socket commit window, without "
               "and with the proposed uarch fix (3.4.1)\n";
  Table table({"reader_offset_cycles", "tripped(nofix)", "writer_ns(nofix)",
               "attempts(nofix)", "tripped(fix)", "stalls(fix)",
               "writer_ns(fix)", "attempts(fix)"});
  if (!opts.csv) table.stream_to(std::cout);
  const std::vector<Time> offsets{0, 20, 40, 60, 80, 100, 140, 180, 260, 400,
                                  700};
  // One cell per (offset, fix) scenario — each a fresh machine. Column 0
  // runs with the fix off, column 1 with it on.
  const SweepGrid<Outcome> outcomes = run_grid(
      offsets.size(), 2, 1, opts.effective_jobs(),
      [&](std::size_t row, std::size_t fix, std::size_t) {
        Machine m(scenario_config(/*fix=*/fix == 1));
        return run_scenario(m, offsets[row]);
      },
      [&](std::size_t row, const SweepGrid<Outcome>& done) {
        const Outcome& off = done.at(row, 0, 0);
        const Outcome& on = done.at(row, 1, 0);
        table.add_row({std::to_string(offsets[row]),
                       off.tripped ? "yes" : "no",
                       std::to_string(static_cast<int>(off.writer_latency_ns)),
                       std::to_string(off.attempts), on.tripped ? "yes" : "no",
                       std::to_string(on.stalled),
                       std::to_string(static_cast<int>(on.writer_latency_ns)),
                       std::to_string(on.attempts)});
      });
  table.print(std::cout, opts.csv);
  std::cout << "\n(Offsets that land the Fwd-GetS inside the commit window "
               "trip the writer\n without the fix; with the fix the forward "
               "is stalled and the writer commits\n on its first attempt.)\n";
  if (!opts.json_path.empty()) {
    BenchReport report("fig3_tripped_writer");
    report.set_config("seed", Json(static_cast<std::uint64_t>(opts.seed)));
    Json joff = Json::array();
    for (Time t : offsets) joff.push_back(Json(static_cast<std::uint64_t>(t)));
    report.set_config("reader_offsets_cycles", std::move(joff));
    report.set("ns_per_cycle", Json(ns_per_cycle()));
    report.add_table("tripped_writer", table);
    for (std::size_t row = 0; row < offsets.size(); ++row) {
      for (std::size_t fix = 0; fix < 2; ++fix) {
        const Outcome& o = outcomes.at(row, fix, 0);
        Json cj = Json::object();
        cj.set("reader_offset_cycles",
               Json(static_cast<std::uint64_t>(offsets[row])));
        cj.set("uarch_fix", Json(fix == 1));
        cj.set("tripped", Json(o.tripped));
        cj.set("uarch_fix_stalls", Json(o.stalled));
        cj.set("writer_attempts", Json(o.attempts));
        cj.set("writer_latency_ns", Json(o.writer_latency_ns));
        cj.set("counters", metrics_to_json(o.metrics));
        report.add_cell(std::move(cj));
      }
    }
    if (!report.write(opts.json_path)) return 1;
  }
  // Traced cell: an offset known to land inside the commit window, fix off
  // — the §3.4 tripped-writer timeline (docs/protocol.md §3.4.1).
  const bool traced = bench::trace_cell(
      opts.trace_path, scenario_config(/*fix=*/false),
      [&](Machine& m) { run_scenario(m, /*reader_offset=*/180); });
  return traced ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "fig3_tripped_writer: " << e.what() << "\n";
  return 1;
}
