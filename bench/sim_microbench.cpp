// Whole-machine microbenchmark and allocation gate.
//
// engine_microbench gates the event engine alone; this bench drives the
// FULL simulator stack — coroutine programs, cores, caches, directory,
// interconnect, and the simulated SBQ — through complete enqueue/dequeue
// rounds and counts every heap allocation in the process (global operator
// new/delete are overridden in this translation unit).
//
// Phases:
//   * cold   — first round on a fresh machine: line tables and the frame
//     pool warm up, so allocs/event is nonzero.
//   * steady — subsequent identical rounds: every allocation source must be
//     warm (engine slab, frame pool, flat maps pre-sized via
//     Machine::reserve_lines, inline vectors, inline sharer-set storage;
//     each core's memory operations run on its one operation record), so
//     allocs/event MUST be exactly 0.
//
// The process exits nonzero if any steady phase allocates — this is the
// regression gate that keeps the simulator's hot path allocation-free
// end-to-end (`ctest -L perf_smoke`).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "benchsupport/bench_report.hpp"
#include "benchsupport/sim_workload.hpp"
#include "benchsupport/table.hpp"
#include "sim/machine.hpp"
#include "sim/serialize.hpp"
#include "sim_queue_bench_util.hpp"
#include "simqueue/sim_sbq.hpp"

// ---------------------------------------------------------------------------
// Global allocation counters. Relaxed atomics, because a replaced global
// operator new must be safe on any thread; the counters are only read
// between phases. Every form of operator new funnels through count_alloc.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
void count(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
}

void* count_alloc(std::size_t n) {
  count(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* count_alloc_aligned(std::size_t n, std::size_t align) {
  count(n);
  const std::size_t rounded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return count_alloc(n); }
void* operator new[](std::size_t n) { return count_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return count_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return count_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------
// Workload: P producers and P consumers on a 2P-core machine run one
// round of the figure drivers' mixed workload per phase (measure_spec on a
// mixed spec; every phase drains the queue). The phase runner keeps its
// accumulator on the stack, so the bench allocates nothing on its own
// account inside a measured phase.
// ---------------------------------------------------------------------------

namespace sbq {
namespace {

struct PhaseResult {
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  double events_per_sec = 0;
};

PhaseResult run_phase(sim::Machine& m, simq::SimSbq& q, int producers,
                      simq::Value ops, std::uint64_t seed) {
  simq::WorkloadSpec spec;
  spec.kind = simq::Workload::kMixed;
  spec.producers = producers;
  spec.consumers = producers;
  spec.ops_per_thread = ops;
  spec.seed = seed;
  const std::uint64_t events_before = m.events_processed();
  const std::uint64_t allocs_before = g_alloc_calls.load();
  const std::uint64_t bytes_before = g_alloc_bytes.load();
  const auto t0 = std::chrono::steady_clock::now();
  const simq::SimRunResult run = simq::measure_spec(m, q, spec, 0);
  const auto t1 = std::chrono::steady_clock::now();
  PhaseResult r;
  r.events = m.events_processed() - events_before;
  r.ops = run.enq_ops + run.deq_ops;
  r.allocs = g_alloc_calls.load() - allocs_before;
  r.bytes = g_alloc_bytes.load() - bytes_before;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec = secs > 0 ? static_cast<double>(r.events) / secs : 0;
  return r;
}

}  // namespace
}  // namespace sbq

int main(int argc, char** argv) try {
  using namespace sbq;
  const BenchOptions opts = BenchOptions::parse(argc, argv, "sim_microbench");
  const int producers = opts.thread_count_or(4);
  const simq::Value ops = opts.ops_or(250);  // per producer, per phase
  const int repeats = opts.repeats_or(2);    // steady phases
  BenchReport report("sim_microbench");
  report.set_config("producers", Json(static_cast<std::uint64_t>(producers)));
  report.set_config("ops_per_producer_per_phase", Json(ops));
  report.set_config("steady_phases", Json(static_cast<std::uint64_t>(repeats)));

  // The shared fault and machine options.
  sim::MachineConfig mcfg = bench::sim_machine_config(opts, 2 * producers);
  // --trace keeps the event ring ON through the measured phases. TraceEvent
  // stores interned literals (no per-event strings) and the ring is reserved
  // to capacity at construction, so recording must not cost a single
  // steady-phase allocation (perf_sim_alloc_gate_traced in
  // bench/CMakeLists.txt). The ring's JSONL is written after the phases.
  if (!opts.trace_path.empty()) {
    if (opts.from_snapshot) {
      std::cerr << "sim_microbench: --trace and --from-snapshot are "
                   "mutually exclusive (the trace ring is debug state and "
                   "is not captured by snapshots)\n";
      return 1;
    }
    mcfg.record_trace = true;
    mcfg.trace_capacity = 4096;
  }

  sim::Machine m(mcfg);
  simq::SimSbq::Config qcfg;
  qcfg.enqueuers = producers;
  qcfg.dequeuers = producers;
  simq::SimSbq q(m, qcfg);

  // Pre-size every per-line table for the run's whole address range: the
  // queue header plus one fresh node per enqueue (upper bound; losers reuse
  // their nodes), and the queue's open-basket counts for one basket per
  // enqueue. Setup-time allocation, like reserving a vector.
  const std::uint64_t total_enqueues = static_cast<std::uint64_t>(repeats + 1) *
                                       static_cast<std::uint64_t>(producers) *
                                       ops;
  const std::uint64_t node_words =
      static_cast<std::uint64_t>(producers) /* basket cells */ +
      1 /* extraction counter */ + 2 /* empty flag + link */;
  m.reserve_lines(16 + 2 * static_cast<std::uint64_t>(producers) +
                  (total_enqueues + 2) * node_words);
  m.reserve_tasks(static_cast<std::size_t>(2 * producers));
  q.reserve_baskets(total_enqueues);

  std::cout << "# Sim microbench: whole-machine enqueue/dequeue rounds with "
               "heap-allocation accounting\n# ("
            << producers << " producers + " << producers << " consumers, "
            << ops << " ops/producer/phase; steady-state allocations must be "
               "0)\n";
  Table table({"phase", "events", "queue_ops", "Mevents/s", "allocs",
               "alloc_bytes", "allocs_per_event"});
  bool steady_clean = true;
  // --from-snapshot replaces the machine under the steady phases with one
  // forked from a serialize/decode round-trip of the cold-warmed state
  // (storage for that fork lives here so `mp`/`qp` stay valid).
  std::unique_ptr<sim::Machine> forked;
  std::optional<simq::SimSbq> forked_q;
  sim::Machine* mp = &m;
  simq::SimSbq* qp = &q;
  for (int r = 0; r < repeats + 1; ++r) {
    const PhaseResult res =
        run_phase(*mp, *qp, producers, ops, 1 + static_cast<std::uint64_t>(r));
    const std::string phase = r == 0 ? "cold" : "steady-" + std::to_string(r);
    if (r > 0 && res.allocs != 0) steady_clean = false;
    const double ape =
        res.events == 0 ? 0
                        : static_cast<double>(res.allocs) /
                              static_cast<double>(res.events);
    char rate[32], apev[32];
    std::snprintf(rate, sizeof rate, "%.2f", res.events_per_sec / 1e6);
    std::snprintf(apev, sizeof apev, "%.6f", ape);
    table.add_row({phase, std::to_string(res.events), std::to_string(res.ops),
                   rate, std::to_string(res.allocs),
                   std::to_string(res.bytes), apev});
    if (!opts.json_path.empty()) {
      Json cj = Json::object();
      cj.set("phase", Json(phase));
      cj.set("events", Json(res.events));
      cj.set("queue_ops", Json(res.ops));
      cj.set("events_per_sec", Json(res.events_per_sec));
      cj.set("allocs", Json(res.allocs));
      cj.set("alloc_bytes", Json(res.bytes));
      cj.set("allocs_per_event", Json(ape));
      report.add_cell(std::move(cj));
    }
    // --from-snapshot: serialize the machine the cold phase just warmed,
    // decode the blob, and run every steady phase on a fork of the DECODED
    // snapshot, with a copy of the warmed queue rebound to that fork — the
    // allocation gate's deserialized-warm-start leg
    // (perf_sim_alloc_gate_snapshot). The fork's event-node slab is
    // prewarmed to the warm machine's capacity, so the fork — like the
    // machine it replaces — never refills mid-phase; line-table capacities
    // ride along inside the blob.
    if (r == 0 && opts.from_snapshot) {
      const std::uint64_t key = 0x5ea15ea15ea15ea1ULL;
      std::vector<std::uint64_t> words;
      q.save_host_state(words);
      const std::vector<std::uint8_t> blob =
          sim::encode_snapshot_blob(m.snapshot(), words, key);
      sim::MachineSnapshot decoded;
      std::vector<std::uint64_t> dwords;
      if (blob.empty() ||
          !sim::decode_snapshot_blob(blob, key, decoded, dwords)) {
        std::cerr << "sim_microbench: FAIL — snapshot blob round-trip "
                     "rejected\n";
        return 1;
      }
      if (dwords != words) {
        std::cerr << "sim_microbench: FAIL — decoded host words differ from "
                     "the saved ones\n";
        return 1;
      }
      forked = sim::Machine::fork(decoded);
      forked->engine().prewarm_nodes(m.engine().node_capacity());
      forked->reserve_tasks(static_cast<std::size_t>(2 * producers));
      forked_q.emplace(q);
      forked_q->rebind(*forked);
      mp = forked.get();
      qp = &*forked_q;
      std::cout << "(steady phases run on a machine forked from a "
                   "serialized+decoded snapshot)\n";
    }
  }
  table.print(std::cout, opts.csv);
  std::cout << "\n(cold warms the line tables and the coroutine frame pool; "
               "a steady phase that\n allocates fails the gate: the whole "
               "simulator must be allocation-free once warm.)\n";
  if (!opts.json_path.empty()) {
    report.add_table("phases", table);
    if (!report.write(opts.json_path)) return 1;
  }
  if (!opts.trace_path.empty() &&
      !bench::write_trace_file(*mp, opts.trace_path)) {
    return 1;
  }
  if (!steady_clean) {
    std::cerr << "sim_microbench: FAIL — steady phase allocated on the heap "
                 "(see the allocs column)\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "sim_microbench: " << e.what() << "\n";
  return 1;
}
