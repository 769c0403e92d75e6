// Robustness under fault injection (docs/robustness.md).
//
// The linearizability argument of §5.3.2 assumes nothing about *why* a
// transactional attempt aborts — so it must survive aborts the protocol
// itself never produces. This suite sweeps ≥16 fault seeds per queue with
// rate-based capacity/interrupt/spurious injection, bounded message-latency
// jitter, and the runtime coherence invariant checker enabled, and asserts
// on every seed:
//   * the recorded history passes the Henzinger–Sezgin–Vafeiadis checker,
//   * counts conserve (every enqueued element is dequeued exactly once),
//   * no coherence invariant trips (check_invariants would throw).
// Plus: the degraded plain-CAS path actually fires across the SBQ sweep,
// identical seeds replay byte-identically, Machine::snapshot refuses while
// fault one-shots are pending, and the quiescence watchdog throws on a
// deadlocked simulated program instead of hanging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "verify/history_checker.hpp"
#include "simqueue/sim_faa_queue.hpp"
#include "simqueue/sim_ms_queue.hpp"
#include "simqueue/sim_sbq.hpp"
#include "sim/trace.hpp"

namespace sbq::simq {
namespace {

using histcheck::History;

constexpr std::uint64_t kSeeds = 16;
constexpr int kProducers = 2;
constexpr int kConsumers = 2;
constexpr Value kPerProducer = 12;

// Aggressive but not saturating: ~40% of transactional attempts take an
// injected non-conflict abort, half of all messages draw 1..12 cycles of
// extra latency, and the invariant checker audits the directory and every
// cache after each delivered message.
sim::MachineConfig faulty_machine(std::uint64_t fault_seed) {
  sim::MachineConfig cfg;
  cfg.cores = kProducers + kConsumers;
  cfg.check_invariants = true;
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.seed = fault_seed;
  cfg.fault_plan.capacity_rate = 0.10;
  cfg.fault_plan.interrupt_rate = 0.20;
  cfg.fault_plan.spurious_rate = 0.10;
  cfg.fault_plan.message_jitter_rate = 0.5;
  cfg.fault_plan.max_message_jitter = 12;
  return cfg;
}

struct RunOutcome {
  History history;
  std::vector<Value> enqueued;
  std::vector<Value> dequeued;
  sim::MetricsSnapshot metrics;
};

// run_recorded (sim_linearizability_test.cpp) plus value recording so
// conservation can be checked as a multiset equality.
template <typename QueueT>
RunOutcome run_recorded(Machine& m, QueueT& q, bool single_id_space) {
  auto out = std::make_shared<RunOutcome>();
  auto hist = std::make_shared<History>();
  auto remaining =
      std::make_shared<Value>(Value(kProducers) * kPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    m.spawn([](Machine& m, QueueT& q, int p,
               std::shared_ptr<RunOutcome> out,
               std::shared_ptr<History> hist) -> Task<void> {
      Core& c = m.core(p);
      co_await c.think(Time(1 + p * 13));
      for (Value i = 0; i < kPerProducer; ++i) {
        const Value elem = kFirstElement + (Value(p) << 32) + i;
        const Time inv = m.engine().now();
        co_await q.enqueue(c, elem, p);
        hist->record_enq(inv, m.engine().now(), elem);
        out->enqueued.push_back(elem);
        co_await c.think(i % 7 == 0 ? 900 : 30);
      }
    }(m, q, p, out, hist));
  }
  for (int ci = 0; ci < kConsumers; ++ci) {
    const int core = kProducers + ci;
    const int id = single_id_space ? kProducers + ci : ci;
    m.spawn([](Machine& m, QueueT& q, int core, int id,
               std::shared_ptr<Value> remaining,
               std::shared_ptr<RunOutcome> out,
               std::shared_ptr<History> hist) -> Task<void> {
      Core& c = m.core(core);
      co_await c.think(Time(2 + id * 11));
      while (*remaining > 0) {
        const Time inv = m.engine().now();
        const Value e = co_await q.dequeue(c, id);
        hist->record_deq(inv, m.engine().now(), e);
        if (e != 0) {
          out->dequeued.push_back(e);
          --*remaining;
        } else {
          co_await c.think(120);
        }
      }
    }(m, q, core, id, remaining, out, hist));
  }
  m.run();
  out->history = *hist;
  out->metrics = m.metrics();
  return *out;
}

void expect_no_violations(const History& h) {
  const auto violations = h.check();
  for (const auto& v : violations) {
    ADD_FAILURE() << v.kind << ": " << v.detail;
  }
  EXPECT_GT(h.size(), 0u);
}

void expect_conserved(RunOutcome& o) {
  ASSERT_EQ(o.enqueued.size(),
            static_cast<std::size_t>(Value(kProducers) * kPerProducer));
  std::sort(o.enqueued.begin(), o.enqueued.end());
  std::sort(o.dequeued.begin(), o.dequeued.end());
  EXPECT_EQ(o.enqueued, o.dequeued);
}

RunOutcome run_sbq(std::uint64_t fault_seed) {
  Machine m(faulty_machine(fault_seed));
  SimSbq::Config qc;
  qc.enqueuers = kProducers;
  qc.dequeuers = kConsumers;
  // Small degradation budget so the sweep reliably exercises the
  // fallback-CAS path at these injection rates (0.4^3 per attempt chain).
  qc.txcas.max_nonconflict_aborts = 3;
  SimSbq q(m, qc);
  return run_recorded(m, q, /*single_id_space=*/false);
}

// The MS/FAA queues never run transactions, so rate-based abort injection
// is inert for them — their sweep exercises message jitter (a perturbed
// but protocol-legal schedule) under the invariant checker.
RunOutcome run_ms(std::uint64_t fault_seed) {
  Machine m(faulty_machine(fault_seed));
  SimMsQueue q(m);
  return run_recorded(m, q, /*single_id_space=*/true);
}

RunOutcome run_faa(std::uint64_t fault_seed) {
  Machine m(faulty_machine(fault_seed));
  SimFaaQueue q(m);
  return run_recorded(m, q, /*single_id_space=*/true);
}

TEST(SimFault, SeedSweepSbqHtm) {
  std::uint64_t total_injected = 0;
  std::uint64_t total_fallback_cas = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RunOutcome o = run_sbq(seed);
    expect_no_violations(o.history);
    expect_conserved(o);
    EXPECT_TRUE(o.metrics.fault_injection);
    total_injected += o.metrics.faults.injected_total();
    total_fallback_cas += o.metrics.htm.fallback_cas;
  }
  // The sweep must actually inject aborts and actually degrade some TxCAS
  // calls to plain CAS — otherwise it is not testing the fallback path.
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(total_fallback_cas, 0u);
}

TEST(SimFault, SeedSweepMsQueue) {
  std::uint64_t total_jittered = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RunOutcome o = run_ms(seed);
    expect_no_violations(o.history);
    expect_conserved(o);
    total_jittered += o.metrics.faults.jittered_messages;
  }
  EXPECT_GT(total_jittered, 0u);
}

TEST(SimFault, SeedSweepFaaQueue) {
  std::uint64_t total_jittered = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RunOutcome o = run_faa(seed);
    expect_no_violations(o.history);
    expect_conserved(o);
    total_jittered += o.metrics.faults.jittered_messages;
  }
  EXPECT_GT(total_jittered, 0u);
}

// Identical fault seeds must replay byte-identically: the injection and
// jitter streams are deterministic functions of (seed, core id), not of
// host state.
TEST(SimFault, SameSeedIsDeterministic) {
  RunOutcome a = run_sbq(5);
  RunOutcome b = run_sbq(5);
  EXPECT_EQ(a.metrics.final_time, b.metrics.final_time);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.htm.calls, b.metrics.htm.calls);
  EXPECT_EQ(a.metrics.htm.attempts, b.metrics.htm.attempts);
  EXPECT_EQ(a.metrics.htm.fallback_cas, b.metrics.htm.fallback_cas);
  EXPECT_EQ(a.metrics.faults.injected_capacity,
            b.metrics.faults.injected_capacity);
  EXPECT_EQ(a.metrics.faults.injected_interrupt,
            b.metrics.faults.injected_interrupt);
  EXPECT_EQ(a.metrics.faults.injected_spurious,
            b.metrics.faults.injected_spurious);
  EXPECT_EQ(a.metrics.faults.jittered_messages,
            b.metrics.faults.jittered_messages);
  EXPECT_EQ(a.metrics.faults.jitter_cycles, b.metrics.faults.jitter_cycles);
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.dequeued, b.dequeued);
  EXPECT_EQ(a.history.size(), b.history.size());
  // And distinct seeds must actually perturb the schedule.
  RunOutcome c = run_sbq(6);
  EXPECT_NE(a.metrics.final_time, c.metrics.final_time);
}

// snapshot() must refuse (not silently drop) while scheduled fault
// one-shots have not fired yet: a fork taken then would silently lose them.
TEST(SimFault, SnapshotRefusedWhileOneShotsPending) {
  sim::MachineConfig cfg;
  cfg.cores = 2;
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.one_shots.push_back(
      {.time = 400, .core = 0, .kind = sim::FaultKind::kCapacity});
  Machine m(cfg);
  EXPECT_THROW((void)m.snapshot(), std::runtime_error);

  // Once run() has drained the plan the machine is snapshottable again,
  // and the one-shot is recorded as fired (a no-op abort if the target
  // core held no transaction at that instant — like a real interrupt).
  m.spawn([](Machine& m) -> Task<void> {
    co_await m.core(0).think(10);
  }(m));
  m.run();
  EXPECT_EQ(m.metrics().faults.one_shots_fired, 1u);
  EXPECT_NO_THROW((void)m.snapshot());
}

// The quiescence watchdog: a simulated program that deadlocks (here: one
// party stuck at a two-party barrier) must throw — after dumping the debug
// ring — instead of returning as if the run completed.
TEST(SimFault, WatchdogThrowsOnDeadlock) {
  sim::MachineConfig cfg;
  cfg.cores = 2;
  Machine m(cfg);
  sim::SimBarrier barrier(m.engine(), /*parties=*/2);
  m.spawn([](Machine& m, sim::SimBarrier& b) -> Task<void> {
    co_await m.core(0).think(5);
    co_await b.arrive_and_wait();  // partner never arrives
  }(m, barrier));
  EXPECT_THROW(m.run(), std::runtime_error);
}

// The always-on debug ring records interconnect traffic without any trace
// flag, so post-mortem dumps work in default-configured runs.
TEST(SimFault, DebugRingRecordsWithoutTraceFlag) {
  sim::MachineConfig cfg;
  cfg.cores = 2;
  ASSERT_FALSE(cfg.record_trace);
  Machine m(cfg);
  const sim::Addr a = m.alloc();
  m.spawn([](Machine& m, sim::Addr a) -> Task<void> {
    co_await m.core(0).store(a, 7);
    co_await m.core(1).load(a);
  }(m, a));
  m.run();
  EXPECT_GT(m.debug_ring().recorded(), 0u);
}

// A capacity that is not a power of two rounds up to one (a send indexes
// the ring with a mask); the dump still lists the retained tail oldest
// first, before and after the ring wraps.
TEST(SimFault, DebugRingRoundsCapacityUpAndDumpsOldestFirst) {
  sim::DebugRing ring(5);
  ASSERT_EQ(ring.capacity(), 8u);
  const auto record = [&ring](int i) {
    ring.record(static_cast<sim::Time>(i), 0, 1, sim::MsgType::kGetS,
                static_cast<sim::Addr>(100 + i), 0);
  };
  const auto dump = [&ring] {
    std::ostringstream os;
    ring.dump(os);
    return os.str();
  };
  for (int i = 0; i < 3; ++i) record(i);
  std::string out = dump();
  EXPECT_NE(out.find("last 3 of 3 "), std::string::npos) << out;
  EXPECT_LT(out.find("addr=100 "), out.find("addr=102 "));

  for (int i = 3; i < 20; ++i) record(i);
  out = dump();
  EXPECT_NE(out.find("last 8 of 20 "), std::string::npos) << out;
  EXPECT_EQ(out.find("addr=111 "), std::string::npos) << out;
  std::size_t prev = 0;
  for (int i = 12; i < 20; ++i) {
    const std::size_t at = out.find("addr=" + std::to_string(100 + i) + " ");
    ASSERT_NE(at, std::string::npos) << out;
    EXPECT_GT(at, prev);
    prev = at;
  }
  EXPECT_EQ(sim::DebugRing().capacity(), sim::DebugRing::kDefaultCapacity);
}

}  // namespace
}  // namespace sbq::simq
