// §4.3 ablation: TxCAS across NUMA domains, in the presence of readers.
//
// Tripped writers need a *reader* whose GetS lands in a writer's commit
// window — in SBQ that reader is a dequeuer (or a tail-chasing enqueuer)
// polling the tail node's link word. This benchmark runs a few TxCAS
// writers (always on socket 0, per the paper's rule that TxCASs of a
// location stay on one socket) against polling readers placed either on
// the same socket or on the remote socket, and reports mean TxCAS latency,
// transactional attempts per call, and tripped-writer aborts per call —
// without and with the §3.4.1 fix.
//
// Expected: remote readers widen the hit probability of the commit window
// (cross-socket invalidation acks hold it open longer), inflating
// attempts/call; the fix restores first-attempt commits.
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/metrics_json.hpp"
#include "benchsupport/parallel_sweep.hpp"
#include "benchsupport/sweep.hpp"
#include "benchsupport/table.hpp"
#include "common/rng.hpp"
#include "sim/machine.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq {
namespace {

using sim::Addr;
using sim::Machine;
using sim::Task;
using sim::Time;
using sim::Value;

struct Result {
  double latency_ns = 0;
  double attempts_per_call = 0;
  double tripped_per_call = 0;
  double stalls_per_call = 0;
  sim::MetricsSnapshot metrics;
};

// One swept cell: the writer and reader counts, the readers' socket, the
// interconnect model and the §3.4.1 fix.
struct Combo {
  int writers;
  int readers;
  bool remote;
  sim::InterconnectModel net;
  bool fix;

  sim::MachineConfig machine() const {
    sim::MachineConfig mcfg;
    mcfg.cores = 2 * (writers + readers);
    mcfg.sockets = 2;
    mcfg.uarch_fix = fix;
    mcfg.interconnect_model = net;
    return mcfg;
  }
};

// Runs `combo` on `m`, a machine built from combo.machine().
Result run(Machine& m, const Combo& combo, Value ops, std::uint64_t seed) {
  const int writers = combo.writers;
  const int per_socket = m.config().cores / 2;
  const Addr x = m.alloc();

  auto lat = std::make_shared<double>(0);
  auto n = std::make_shared<std::uint64_t>(0);
  auto writers_left = std::make_shared<int>(writers);
  const sim::TxCasConfig tx;  // defaults (post-abort delay tuned intra-socket)

  for (int w = 0; w < writers; ++w) {
    m.spawn([](Machine& m, int c, Addr x, sim::TxCasConfig tx, Value ops,
               std::uint64_t seed, std::shared_ptr<double> lat,
               std::shared_ptr<std::uint64_t> n,
               std::shared_ptr<int> left) -> Task<void> {
      Xoshiro256 rng(seed);
      co_await m.core(c).think(1 + rng.next_below(64));
      for (Value j = 0; j < ops; ++j) {
        const Value v = co_await m.core(c).load(x);
        const Time t0 = m.engine().now();
        co_await m.core(c).txcas(x, v, v + 1, tx);
        *lat += static_cast<double>(m.engine().now() - t0);
        ++*n;
        co_await m.core(c).think(1 + rng.next_below(64));
      }
      --*left;
    }(m, w, x, tx, ops, seed + static_cast<std::uint64_t>(w), lat, n,
      writers_left));
  }
  for (int r = 0; r < combo.readers; ++r) {
    const int core = combo.remote ? per_socket + r : writers + r;
    m.spawn([](Machine& m, int c, Addr x, std::uint64_t seed,
               std::shared_ptr<int> writers_left) -> Task<void> {
      Xoshiro256 rng(seed);
      while (*writers_left > 0) {
        co_await m.core(c).load(x);
        co_await m.core(c).think(20 + rng.next_below(60));
      }
    }(m, core, x, seed * 31 + static_cast<std::uint64_t>(r), writers_left));
  }
  m.run();

  const sim::HtmCounters htm = m.stats().htm();
  const std::uint64_t attempts = htm.attempts, calls = htm.calls,
                      stalls = htm.uarch_fix_stalls;
  const std::uint64_t tripped =
      htm.aborts[static_cast<std::size_t>(sim::AbortCause::kTrippedWriter)];
  Result res;
  res.latency_ns = *lat / static_cast<double>(*n) * ns_per_cycle();
  res.attempts_per_call =
      static_cast<double>(attempts) / static_cast<double>(calls);
  res.tripped_per_call =
      static_cast<double>(tripped) / static_cast<double>(calls);
  res.stalls_per_call =
      static_cast<double>(stalls) / static_cast<double>(calls);
  res.metrics = m.metrics();
  return res;
}

}  // namespace
}  // namespace sbq

int main(int argc, char** argv) try {
  using namespace sbq;
  const BenchOptions opts = BenchOptions::parse(argc, argv, "ablation_numa");
  const sim::Value ops = opts.ops_or(400);

  // Every interconnect parameter the swept machines use goes in the header
  // (and the JSON config below): the flat/link divergence is meaningless
  // without the link's bandwidth figures next to it.
  const sim::MachineConfig defaults;
  std::cout << "# 4.3 ablation: TxCAS writers (socket 0) with polling "
               "readers, local vs remote\n# (" << ops
            << " writer ops each; readers poll the TxCAS target)\n"
            << "# interconnect: sockets=2 intra_latency="
            << defaults.intra_latency
            << " inter_latency=" << defaults.inter_latency
            << " link_occupancy=" << defaults.link_occupancy
            << " models=flat,link\n";
  Table table({"writers", "readers", "reader_socket", "net", "fix",
               "latency_ns", "attempts/call", "tripped/call",
               "fix_stalls/call"});
  if (!opts.csv) table.stream_to(std::cout);
  std::vector<Combo> combos;
  for (int writers : {1, 2, 4}) {
    for (int readers : {2, 6}) {
      for (bool remote : {false, true}) {
        for (sim::InterconnectModel net :
             {sim::InterconnectModel::kFlat, sim::InterconnectModel::kLink}) {
          for (bool fix : {false, true}) {
            combos.push_back({writers, readers, remote, net, fix});
          }
        }
      }
    }
  }
  BenchReport report("ablation_numa");
  report.set_config("seed", Json(static_cast<std::uint64_t>(opts.seed)));
  report.set_config("ops_per_writer", Json(static_cast<std::uint64_t>(ops)));
  report.set_config("sockets", Json(2));
  report.set_config("intra_latency",
                    Json(static_cast<std::uint64_t>(defaults.intra_latency)));
  report.set_config("inter_latency",
                    Json(static_cast<std::uint64_t>(defaults.inter_latency)));
  report.set_config("link_occupancy",
                    Json(static_cast<std::uint64_t>(defaults.link_occupancy)));
  {
    Json models = Json::array();
    models.push_back(Json("flat"));
    models.push_back(Json("link"));
    report.set_config("interconnect_models", std::move(models));
  }
  report.set("ns_per_cycle", Json(ns_per_cycle()));
  run_grid(
      combos.size(), 1, 1, opts.effective_jobs(),
      [&](std::size_t row, std::size_t, std::size_t) {
        Machine m(combos[row].machine());
        return run(m, combos[row], ops, opts.seed);
      },
      [&](std::size_t row, const SweepGrid<Result>& results) {
        const Combo& c = combos[row];
        const Result& r = results.at(row, 0, 0);
        const bool link = c.net == sim::InterconnectModel::kLink;
        if (!opts.json_path.empty()) {
          Json cj = Json::object();
          cj.set("writers", Json(c.writers));
          cj.set("readers", Json(c.readers));
          cj.set("reader_socket", Json(c.remote ? "remote" : "local"));
          cj.set("interconnect", Json(link ? "link" : "flat"));
          cj.set("uarch_fix", Json(c.fix));
          cj.set("latency_ns", Json(r.latency_ns));
          cj.set("attempts_per_call", Json(r.attempts_per_call));
          cj.set("tripped_per_call", Json(r.tripped_per_call));
          cj.set("fix_stalls_per_call", Json(r.stalls_per_call));
          cj.set("counters", metrics_to_json(r.metrics));
          report.add_cell(std::move(cj));
        }
        char lat[32], att[32], trip[32], st[32];
        std::snprintf(lat, sizeof lat, "%.1f", r.latency_ns);
        std::snprintf(att, sizeof att, "%.2f", r.attempts_per_call);
        std::snprintf(trip, sizeof trip, "%.3f", r.tripped_per_call);
        std::snprintf(st, sizeof st, "%.3f", r.stalls_per_call);
        table.add_row({std::to_string(c.writers), std::to_string(c.readers),
                       c.remote ? "remote" : "local", link ? "link" : "flat",
                       c.fix ? "on" : "off", lat, att, trip, st});
      });
  table.print(std::cout, opts.csv);
  std::cout << "\n(Remote readers hold the commit window open across the "
               "interconnect and trip\n writers; the 3.4.1 fix converts "
               "trips into stalls and restores ~1 attempt/call.)\n";
  if (!opts.json_path.empty()) {
    report.add_table("numa_ablation", table);
    if (!report.write(opts.json_path)) return 1;
  }
  // Traced cell: remote readers, link model, fix off — the contended
  // cross-socket trip pattern.
  const Combo traced_combo{/*writers=*/1, /*readers=*/2, /*remote=*/true,
                           sim::InterconnectModel::kLink, /*fix=*/false};
  const bool traced = bench::trace_cell(
      opts.trace_path, traced_combo.machine(),
      [&](Machine& m) { run(m, traced_combo, ops, opts.seed); });
  return traced ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "ablation_numa: " << e.what() << "\n";
  return 1;
}
