// Engine microbenchmark: schedule/run throughput of the discrete-event
// engine alone, plus its allocation behaviour (the engine's slab/freelist
// event records must make steady-state scheduling allocation-free).
//
// Every event is a typed kDeliver carrying a Message, run through the
// engine's handler, as every engine event is. Two phases:
//   * cold  — a fresh engine: slab refills and the heap vector's growth
//     are visible in allocs/event.
//   * steady — the same engine re-driven after the first drain: the
//     freelist is warm and the heap vector is at capacity, so allocs/event
//     must print as 0 (this is the regression gate).
//
// The workload is a self-refilling event cascade: `width` initial events,
// each of which reschedules itself until `ops` events have run — the same
// schedule-from-inside-an-event pattern the coherence protocol and the
// coroutine glue produce.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/table.hpp"
#include "sim/engine.hpp"

namespace sbq {
namespace {

struct PhaseResult {
  double events_per_sec = 0;
  std::uint64_t events = 0;
  std::uint64_t slab_refills = 0;
  double allocs_per_event = 0;
};

// One lane of the cascade: each firing advances its LCG and reschedules
// the lane until its budget runs out.
struct Cascade {
  sim::Engine& e;
  std::uint64_t remaining;
  std::uint64_t payload = 0;  // touched per event so work isn't elided
  void fire() {
    payload = payload * 6364136223846793005ULL + 1442695040888963407ULL;
    if (remaining == 0) return;
    --remaining;
    schedule(1 + (payload & 7));
  }
  void schedule(sim::Time delay) {
    // The lane rides in the message's payload word, as a delivery's line
    // value would.
    sim::Message msg;
    msg.value = reinterpret_cast<std::uintptr_t>(this);
    e.schedule_typed(delay, sim::EventKind::kDeliver, 0, msg);
  }
  // The engine's handler.
  static void on_event(void*, const sim::Event& ev) {
    reinterpret_cast<Cascade*>(static_cast<std::uintptr_t>(ev.msg.value))
        ->fire();
  }
};

// Drives `ops` events through `e` and reports throughput plus the alloc
// counters accumulated *during this phase* (deltas against phase start).
PhaseResult drive(sim::Engine& e, std::uint64_t ops, int width) {
  const sim::Engine::AllocStats before = e.alloc_stats();
  const std::uint64_t processed_before = e.events_processed();

  std::vector<Cascade> lanes;
  lanes.reserve(static_cast<std::size_t>(width));
  const std::uint64_t per_lane = ops / static_cast<std::uint64_t>(width);
  for (int w = 0; w < width; ++w) {
    lanes.push_back(Cascade{e, per_lane, static_cast<std::uint64_t>(w)});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (Cascade& lane : lanes) lane.schedule(1);
  e.run();
  const auto t1 = std::chrono::steady_clock::now();

  PhaseResult r;
  r.events = e.events_processed() - processed_before;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec = secs > 0 ? static_cast<double>(r.events) / secs : 0;
  const sim::Engine::AllocStats after = e.alloc_stats();
  r.slab_refills = after.slab_refills - before.slab_refills;
  r.allocs_per_event =
      r.events == 0 ? 0
                    : static_cast<double>(r.slab_refills) /
                          static_cast<double>(r.events);
  return r;
}

}  // namespace
}  // namespace sbq

int main(int argc, char** argv) try {
  using namespace sbq;
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, "engine_microbench");
  const std::uint64_t ops = opts.ops_or(2'000'000);
  const int width = opts.thread_count_or(64);
  const int repeats = opts.repeats_or(2);
  BenchReport report("engine_microbench");
  report.set_config("events_per_phase", Json(ops));
  report.set_config("lanes", Json(width));
  report.set_config("steady_phases", Json(repeats));

  std::cout << "# Engine microbench: schedule/run throughput and allocation "
               "behaviour\n# ("
            << ops << " events/phase, " << width
            << " concurrent event lanes; steady-state allocs/event must be "
               "0)\n";
  Table table({"phase", "events", "Mevents/s", "slab_refills",
               "allocs_per_event"});
  bool steady_clean = true;
  sim::Engine engine;
  engine.set_handler(&Cascade::on_event, nullptr);
  for (int r = 0; r < repeats + 1; ++r) {
    const PhaseResult res = drive(engine, ops, width);
    const std::string phase = r == 0 ? "cold" : "steady-" + std::to_string(r);
    if (r > 0 && res.slab_refills != 0) steady_clean = false;
    char rate[32], apev[32];
    std::snprintf(rate, sizeof rate, "%.2f", res.events_per_sec / 1e6);
    std::snprintf(apev, sizeof apev, "%.6f", res.allocs_per_event);
    table.add_row({phase, std::to_string(res.events), rate,
                   std::to_string(res.slab_refills), apev});
    if (!opts.json_path.empty()) {
      Json cj = Json::object();
      cj.set("phase", Json(phase));
      cj.set("events", Json(res.events));
      cj.set("events_per_sec", Json(res.events_per_sec));
      cj.set("slab_refills", Json(res.slab_refills));
      cj.set("allocs_per_event", Json(res.allocs_per_event));
      report.add_cell(std::move(cj));
    }
  }
  table.print(std::cout, opts.csv);
  std::cout << "\n(cold pays the slab/heap warm-up; every steady phase "
               "must report 0 slab\n refills — scheduling is "
               "allocation-free once warm.)\n";
  if (!opts.json_path.empty()) {
    report.add_table("phases", table);
    if (!report.write(opts.json_path)) return 1;
  }
  if (!steady_clean) {
    std::cerr << "engine_microbench: FAIL — a steady phase allocated "
                 "(slab refill); scheduling must be allocation-free once "
                 "warm\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "engine_microbench: " << e.what() << "\n";
  return 1;
}
