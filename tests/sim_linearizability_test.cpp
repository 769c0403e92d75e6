// Aspect-oriented linearizability testing of the simulated queues.
//
// §5.3.2 proves SBQ linearizable by showing the four Henzinger–Sezgin–
// Vafeiadis violations cannot occur. Here we *test* the same condition:
// run each queue under contention — including transient-empty phases, the
// hardest part (VWit) — record every operation's exact simulated
// invocation/response interval, and run the violation checker over the
// merged history. Simulated timestamps are exact, so the precedence
// relation is precise.
#include <gtest/gtest.h>

#include <memory>

#include "verify/history_checker.hpp"
#include "simqueue/sim_baskets_queue.hpp"
#include "simqueue/sim_cc_queue.hpp"
#include "simqueue/sim_faa_queue.hpp"
#include "simqueue/sim_ms_queue.hpp"
#include "simqueue/sim_sbq.hpp"

namespace sbq::simq {
namespace {

using histcheck::History;

// Producers enqueue with pauses (creating empty windows); consumers spin
// with short backoffs so plenty of NULL dequeues are recorded.
template <typename QueueT>
History run_recorded(Machine& m, QueueT& q, int producers, int consumers,
                     Value per_producer, bool single_id_space) {
  auto hist = std::make_shared<History>();
  auto remaining =
      std::make_shared<Value>(Value(producers) * per_producer);
  for (int p = 0; p < producers; ++p) {
    m.spawn([](Machine& m, QueueT& q, int p, Value n,
               std::shared_ptr<History> hist) -> Task<void> {
      Core& c = m.core(p);
      co_await c.think(Time(1 + p * 13));
      for (Value i = 0; i < n; ++i) {
        const Value elem = kFirstElement + (Value(p) << 32) + i;
        const Time inv = m.engine().now();
        co_await q.enqueue(c, elem, p);
        hist->record_enq(inv, m.engine().now(), elem);
        // Bursty production: longer gaps sometimes, so the queue drains.
        co_await c.think(i % 7 == 0 ? 900 : 30);
      }
    }(m, q, p, per_producer, hist));
  }
  for (int ci = 0; ci < consumers; ++ci) {
    const int core = producers + ci;
    const int id = single_id_space ? producers + ci : ci;
    m.spawn([](Machine& m, QueueT& q, int core, int id,
               std::shared_ptr<Value> remaining,
               std::shared_ptr<History> hist) -> Task<void> {
      Core& c = m.core(core);
      co_await c.think(Time(2 + id * 11));
      while (*remaining > 0) {
        const Time inv = m.engine().now();
        const Value e = co_await q.dequeue(c, id);
        hist->record_deq(inv, m.engine().now(), e);
        if (e != 0) {
          --*remaining;
        } else {
          co_await c.think(120);
        }
      }
    }(m, q, core, id, remaining, hist));
  }
  m.run();
  return *hist;
}

void expect_no_violations(const History& h) {
  const auto violations = h.check();
  for (const auto& v : violations) {
    ADD_FAILURE() << v.kind << ": " << v.detail;
  }
  EXPECT_GT(h.size(), 0u);
}

sim::MachineConfig machine_for(int cores) {
  sim::MachineConfig cfg;
  cfg.cores = cores;
  return cfg;
}

TEST(SimLinearizability, SbqHtm) {
  Machine m(machine_for(6));
  SimSbq q(m, {.enqueuers = 3, .dequeuers = 3});
  expect_no_violations(run_recorded(m, q, 3, 3, 40, false));
}

TEST(SimLinearizability, SbqCas) {
  Machine m(machine_for(6));
  SimSbq q(m, {.enqueuers = 3, .dequeuers = 3, .variant = SbqVariant::kCas});
  expect_no_violations(run_recorded(m, q, 3, 3, 40, false));
}

TEST(SimLinearizability, SbqStriped) {
  Machine m(machine_for(8));
  SimSbq q(m, {.enqueuers = 4, .dequeuers = 4, .basket_capacity = 44,
               .extraction_stripes = 4});
  expect_no_violations(run_recorded(m, q, 4, 4, 40, false));
}

TEST(SimLinearizability, FaaQueue) {
  Machine m(machine_for(6));
  SimFaaQueue q(m);
  expect_no_violations(run_recorded(m, q, 3, 3, 40, true));
}

TEST(SimLinearizability, MsQueue) {
  Machine m(machine_for(6));
  SimMsQueue q(m);
  expect_no_violations(run_recorded(m, q, 3, 3, 40, true));
}

TEST(SimLinearizability, BasketsQueue) {
  Machine m(machine_for(6));
  SimBasketsQueue q(m);
  q.set_dequeuers(6);
  expect_no_violations(run_recorded(m, q, 3, 3, 40, true));
}

TEST(SimLinearizability, CcQueue) {
  Machine m(machine_for(6));
  SimCcQueue q(m, {.threads = 6});
  expect_no_violations(run_recorded(m, q, 3, 3, 40, true));
}

}  // namespace
}  // namespace sbq::simq
