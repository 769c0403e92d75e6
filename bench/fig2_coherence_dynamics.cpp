// Figure 2: cache-coherence dynamics of contended CAS vs HTM-based CAS.
//
// The paper's Figure 2 is a message diagram; this benchmark regenerates its
// quantitative content. C cores all hold the target line in Shared state
// and attempt a CAS of the same old value:
//   (2a) standard CAS — every core's RMW completes at a distinct,
//        serialized time (one owner hand-off per core): the completion
//        times form a staircase whose spread grows with C.
//   (2b) HTM-based CAS — the single winner commits; every loser's
//        transaction is aborted by the winner's back-to-back invalidations,
//        i.e. all losers resolve at (nearly) the same instant: the
//        transaction-resolution times are flat.
//
// For 2b we report the *transaction resolution* time (commit or abort,
// extracted from the protocol trace) — that is the event Figure 2 depicts;
// the post-abort delay and value re-check that follow a loser's abort are
// TxCAS bookkeeping, not coherence serialization.
#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
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

struct Round {
  std::vector<double> resolution_ns;  // per core, relative to round start
  std::uint64_t fwd_getm = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t getm = 0;
  sim::MetricsSnapshot metrics;
};

// One round on `m`, whose event ring must be on: the HTM round's
// resolution times are read from it.
Round run_round(Machine& m, bool htm) {
  const int cores = m.config().cores;
  const Addr x = m.alloc();

  // Warm-up: every core loads the line into Shared state.
  for (int c = 0; c < cores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      co_await m.core(c).load(x);
    }(m, c, x));
  }
  m.run();
  m.trace().clear();
  const sim::ProtocolCounters before = m.stats().protocol();
  const Time start = m.engine().now();

  auto done = std::make_shared<std::vector<Time>>(cores, Time{0});
  sim::TxCasConfig tx;
  tx.intra_txn_delay = 300;  // all losers sit in their delay when the
                             // winner's write lands (Figure 2b's setup)
  for (int c = 0; c < cores; ++c) {
    m.spawn([](Machine& m, int c, Addr x, bool htm, sim::TxCasConfig tx,
               std::shared_ptr<std::vector<Time>> done) -> Task<void> {
      co_await m.core(c).think(static_cast<Time>(1 + c * 2));
      if (htm) {
        co_await m.core(c).txcas(x, 0, static_cast<Value>(c) + 1, tx);
      } else {
        co_await m.core(c).cas(x, 0, static_cast<Value>(c) + 1);
        (*done)[static_cast<std::size_t>(c)] = m.engine().now();
      }
    }(m, c, x, htm, tx, done));
  }
  m.run();

  Round r;
  if (htm) {
    // Resolution = first commit-or-abort event per core in the trace.
    std::vector<Time> resolved(static_cast<std::size_t>(cores), Time{0});
    for (const auto& e : m.trace().events()) {
      if (e.addr != x || e.node < 0 || e.node >= cores) continue;
      if (e.is_send || std::strncmp(e.what, "txcas", 5) != 0) continue;
      auto& slot = resolved[static_cast<std::size_t>(e.node)];
      if (slot == 0) slot = e.time;
    }
    for (Time t : resolved) {
      r.resolution_ns.push_back(static_cast<double>(t - start) *
                                ns_per_cycle());
    }
  } else {
    for (Time t : *done) {
      r.resolution_ns.push_back(static_cast<double>(t - start) *
                                ns_per_cycle());
    }
  }
  const sim::ProtocolCounters after = m.stats().protocol();
  r.fwd_getm = after.fwd_getm - before.fwd_getm;
  r.invalidations = after.inv - before.inv;
  r.getm = after.getm - before.getm;
  r.metrics = m.metrics();
  return r;
}

double spread(const Round& r) {
  const auto [lo, hi] =
      std::minmax_element(r.resolution_ns.begin(), r.resolution_ns.end());
  return *hi - *lo;
}

}  // namespace
}  // namespace sbq

int main(int argc, char** argv) try {
  using namespace sbq;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "fig2_coherence_dynamics");
  const int cores = opts.thread_count_or(8);

  std::cout << "# Figure 2: coherence dynamics of one contended CAS round ("
            << cores << " cores, all\n# starting from Shared state). "
            << "Times are when each core's operation RESOLVES:\n"
            << "# standard CAS = RMW executed; HTM CAS = transaction "
            << "committed or aborted.\n";

  // The two rounds are independent simulations: run them as parallel cells.
  sim::MachineConfig mcfg;
  mcfg.cores = cores;
  const SweepGrid<Round> rounds = run_grid(
      1, 2, 1, opts.effective_jobs(),
      [&](std::size_t, std::size_t mode, std::size_t) {
        Machine m(bench::with_event_ring(mcfg));
        return run_round(m, /*htm=*/mode == 1);
      },
      [](std::size_t, const SweepGrid<Round>&) {});
  const Round& cas = rounds.at(0, 0, 0);
  const Round& htm = rounds.at(0, 1, 0);

  Table table({"core", "standard_cas_resolved_ns", "htm_cas_resolved_ns"});
  for (int c = 0; c < cores; ++c) {
    table.add_row({static_cast<double>(c),
                   cas.resolution_ns[static_cast<std::size_t>(c)],
                   htm.resolution_ns[static_cast<std::size_t>(c)]});
  }
  table.print(std::cout, opts.csv);

  std::cout << "\n## Summary\n";
  Table sum({"mode", "resolution_spread_ns", "GetM", "Fwd-GetM", "Inv"});
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", spread(cas));
  sum.add_row({"standard CAS (2a)", buf, std::to_string(cas.getm),
               std::to_string(cas.fwd_getm), std::to_string(cas.invalidations)});
  std::snprintf(buf, sizeof buf, "%.1f", spread(htm));
  sum.add_row({"HTM CAS (2b)", buf, std::to_string(htm.getm),
               std::to_string(htm.fwd_getm), std::to_string(htm.invalidations)});
  sum.print(std::cout, opts.csv);
  std::cout << "\n(2a: completions form a serialized staircase — the spread "
               "grows with the core\n count, one Fwd-GetM hand-off per loser. "
               "2b: all losers abort on the winner's\n back-to-back "
               "invalidations — near-zero spread.)\n";
  if (!opts.json_path.empty()) {
    BenchReport report("fig2_coherence_dynamics");
    report.set_config("seed", Json(static_cast<std::uint64_t>(opts.seed)));
    report.set_config("cores", Json(cores));
    report.set("ns_per_cycle", Json(ns_per_cycle()));
    report.add_table("per_core_resolution_ns", table);
    report.add_table("summary", sum);
    const char* names[2] = {"standard_cas", "htm_cas"};
    for (std::size_t i = 0; i < 2; ++i) {
      Json cj = Json::object();
      cj.set("mode", Json(names[i]));
      cj.set("resolution_spread_ns", Json(spread(rounds.at(0, i, 0))));
      cj.set("counters", metrics_to_json(rounds.at(0, i, 0).metrics));
      report.add_cell(std::move(cj));
    }
    if (!report.write(opts.json_path)) return 1;
  }
  // Worked trace example (docs/observability.md): the HTM round's events.
  // The warm-up is cleared from the ring, so the trace is exactly the
  // round's coherence event stream.
  const bool traced =
      bench::trace_cell(opts.trace_path, mcfg,
                        [&](Machine& m) { run_round(m, /*htm=*/true); });
  return traced ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "fig2_coherence_dynamics: " << e.what() << "\n";
  return 1;
}
