// Correctness tests for the queue algorithms running on the coherence
// simulator: FIFO in single-thread use, and no-loss/no-duplication plus
// per-producer FIFO under simulated concurrency, for all five queues
// (SBQ-HTM, SBQ-CAS, FAA, MS, BQ-Original, CC).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "simqueue/sim_baskets_queue.hpp"
#include "simqueue/sim_cc_queue.hpp"
#include "simqueue/sim_faa_queue.hpp"
#include "simqueue/sim_ms_queue.hpp"
#include "simqueue/sim_sbq.hpp"

namespace sbq::simq {
namespace {

// Element tagging: element = kFirstElement + producer * kSeqStride + seq.
constexpr Value kSeqStride = 1u << 20;
Value make_elem(int producer, Value seq) {
  return kFirstElement + static_cast<Value>(producer) * kSeqStride + seq;
}
int elem_producer(Value e) {
  return static_cast<int>((e - kFirstElement) / kSeqStride);
}
Value elem_seq(Value e) { return (e - kFirstElement) % kSeqStride; }

// Generic MPMC run over the simulator. QueueT must expose
// enqueue(Core&, Value, id) and dequeue(Core&, id) tasks.
template <typename QueueT>
void run_mpmc_sim(QueueT& q, Machine& m, int producers, int consumers,
                  Value per_producer, bool single_id_space,
                  std::vector<std::vector<Value>>* per_consumer_out) {
  auto remaining =
      std::make_shared<Value>(static_cast<Value>(producers) * per_producer);
  per_consumer_out->assign(static_cast<std::size_t>(consumers), {});
  for (int p = 0; p < producers; ++p) {
    m.spawn([](Machine& m, QueueT& q, int p, Value n) -> Task<void> {
      co_await m.core(p).think(static_cast<Time>(1 + p * 3));
      for (Value i = 0; i < n; ++i) {
        co_await q.enqueue(m.core(p), make_elem(p, i), p);
      }
    }(m, q, p, per_producer));
  }
  for (int ci = 0; ci < consumers; ++ci) {
    const int core = producers + ci;
    const int id = single_id_space ? producers + ci : ci;
    m.spawn([](Machine& m, QueueT& q, int core, int id,
               std::shared_ptr<Value> remaining,
               std::vector<Value>* out) -> Task<void> {
      co_await m.core(core).think(static_cast<Time>(1 + core * 3));
      while (*remaining > 0) {
        const Value e = co_await q.dequeue(m.core(core), id);
        if (e == 0) {
          co_await m.core(core).think(50);
          continue;
        }
        out->push_back(e);
        --*remaining;
      }
    }(m, q, core, id, remaining,
      &(*per_consumer_out)[static_cast<std::size_t>(ci)]));
  }
  m.run();
  EXPECT_EQ(*remaining, 0u);
}

void verify_mpmc_sim(const std::vector<std::vector<Value>>& per_consumer,
                     int producers, Value per_producer) {
  std::map<std::pair<int, Value>, int> seen;
  for (const auto& consumer : per_consumer) {
    std::vector<Value> last_seq(static_cast<std::size_t>(producers), 0);
    std::vector<bool> any(static_cast<std::size_t>(producers), false);
    for (Value e : consumer) {
      const int p = elem_producer(e);
      const Value s = elem_seq(e);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, producers);
      ASSERT_LT(s, per_producer);
      ++seen[{p, s}];
      const auto idx = static_cast<std::size_t>(p);
      if (any[idx]) {
        EXPECT_GT(s, last_seq[idx]) << "per-producer FIFO violated";
      }
      any[idx] = true;
      last_seq[idx] = s;
    }
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(producers) * per_producer);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "duplicate element p=" << key.first
                        << " seq=" << key.second;
  }
}

sim::MachineConfig machine_for(int cores) {
  sim::MachineConfig cfg;
  cfg.cores = cores;
  return cfg;
}

// ---- single-thread FIFO for each queue ----

template <typename QueueT>
void fifo_single_thread(QueueT& q, Machine& m, int n) {
  m.spawn([](Machine& m, QueueT& q, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      co_await q.enqueue(m.core(0), make_elem(0, static_cast<Value>(i)), 0);
    }
    for (int i = 0; i < n; ++i) {
      const Value e = co_await q.dequeue(m.core(0), 0);
      EXPECT_EQ(e, make_elem(0, static_cast<Value>(i)));
    }
    EXPECT_EQ(co_await q.dequeue(m.core(0), 0), 0u);
  }(m, q, n));
  m.run();
}

TEST(SimSbqQueue, FifoSingleThread) {
  Machine m(machine_for(1));
  SimSbq q(m, {.enqueuers = 1, .dequeuers = 1});
  fifo_single_thread(q, m, 40);
}

TEST(SimSbqQueue, FifoSingleThreadCasVariant) {
  Machine m(machine_for(1));
  SimSbq q(m, {.enqueuers = 1, .dequeuers = 1, .variant = SbqVariant::kCas});
  fifo_single_thread(q, m, 40);
}

TEST(SimFaaQueueT, FifoSingleThread) {
  Machine m(machine_for(1));
  SimFaaQueue q(m);
  fifo_single_thread(q, m, 40);
}

TEST(SimMsQueueT, FifoSingleThread) {
  Machine m(machine_for(1));
  SimMsQueue q(m);
  fifo_single_thread(q, m, 40);
}

TEST(SimBasketsQueueT, FifoSingleThread) {
  Machine m(machine_for(1));
  SimBasketsQueue q(m);
  q.set_dequeuers(1);
  fifo_single_thread(q, m, 40);
}

TEST(SimCcQueueT, FifoSingleThread) {
  Machine m(machine_for(1));
  SimCcQueue q(m, {.threads = 1});
  fifo_single_thread(q, m, 40);
}

// ---- MPMC for each queue ----

TEST(SimSbqQueue, MpmcHtm) {
  constexpr int kP = 4, kC = 3;
  Machine m(machine_for(kP + kC));
  SimSbq q(m, {.enqueuers = kP, .dequeuers = kC});
  std::vector<std::vector<Value>> got;
  run_mpmc_sim(q, m, kP, kC, 60, /*single_id_space=*/false, &got);
  verify_mpmc_sim(got, kP, 60);
}

TEST(SimSbqQueue, MpmcCas) {
  constexpr int kP = 4, kC = 3;
  Machine m(machine_for(kP + kC));
  SimSbq q(m, {.enqueuers = kP, .dequeuers = kC, .variant = SbqVariant::kCas});
  std::vector<std::vector<Value>> got;
  run_mpmc_sim(q, m, kP, kC, 60, false, &got);
  verify_mpmc_sim(got, kP, 60);
}

TEST(SimSbqQueue, MpmcHtmFixedBasket44) {
  // The paper's configuration: B fixed at 44, fewer live enqueuers.
  constexpr int kP = 3, kC = 2;
  Machine m(machine_for(kP + kC));
  SimSbq q(m, {.enqueuers = kP, .dequeuers = kC, .basket_capacity = 44});
  std::vector<std::vector<Value>> got;
  run_mpmc_sim(q, m, kP, kC, 40, false, &got);
  verify_mpmc_sim(got, kP, 40);
}

TEST(SimFaaQueueT, Mpmc) {
  constexpr int kP = 4, kC = 3;
  Machine m(machine_for(kP + kC));
  SimFaaQueue q(m);
  std::vector<std::vector<Value>> got;
  run_mpmc_sim(q, m, kP, kC, 80, true, &got);
  verify_mpmc_sim(got, kP, 80);
}

TEST(SimMsQueueT, Mpmc) {
  constexpr int kP = 4, kC = 3;
  Machine m(machine_for(kP + kC));
  SimMsQueue q(m);
  std::vector<std::vector<Value>> got;
  run_mpmc_sim(q, m, kP, kC, 60, true, &got);
  verify_mpmc_sim(got, kP, 60);
}

TEST(SimBasketsQueueT, Mpmc) {
  constexpr int kP = 4, kC = 3;
  Machine m(machine_for(kP + kC));
  SimBasketsQueue q(m);
  q.set_dequeuers(kP + kC);
  std::vector<std::vector<Value>> got;
  run_mpmc_sim(q, m, kP, kC, 60, true, &got);
  verify_mpmc_sim(got, kP, 60);
}

TEST(SimCcQueueT, Mpmc) {
  constexpr int kP = 4, kC = 3;
  Machine m(machine_for(kP + kC));
  SimCcQueue q(m, {.threads = kP + kC});
  std::vector<std::vector<Value>> got;
  run_mpmc_sim(q, m, kP, kC, 60, true, &got);
  verify_mpmc_sim(got, kP, 60);
}

// ---- SBQ-specific: baskets actually form under contention ----

TEST(SimSbqQueue, BasketsFormUnderContention) {
  constexpr int kP = 6;
  Machine m(machine_for(kP + 1));
  SimSbq q(m, {.enqueuers = kP, .dequeuers = 1});
  constexpr Value kPer = 40;
  for (int p = 0; p < kP; ++p) {
    m.spawn([](Machine& m, SimSbq& q, int p) -> Task<void> {
      for (Value i = 0; i < kPer; ++i) {
        co_await q.enqueue(m.core(p), make_elem(p, i), p);
      }
    }(m, q, p));
  }
  m.run();
  // Count nodes: with baskets forming, far fewer nodes than elements.
  Value nodes = 0;
  m.spawn([](Machine& m, SimSbq& q, Value* nodes) -> Task<void> {
    Addr n = co_await m.core(kP).load(q.head_addr());
    while (n != 0) {
      ++*nodes;
      n = co_await q.load_next(m.core(kP), n);
    }
  }(m, q, &nodes));
  m.run();
  EXPECT_LT(nodes, static_cast<Value>(kP) * kPer)
      << "no baskets formed: every element got its own node";
  // Drain: every element must come out exactly once.
  std::vector<std::vector<Value>> got(1);
  m.spawn([](Machine& m, SimSbq& q, std::vector<Value>* out) -> Task<void> {
    for (;;) {
      const Value e = co_await q.dequeue(m.core(kP), 0);
      if (e == 0) co_return;
      out->push_back(e);
    }
  }(m, q, &got[0]));
  m.run();
  verify_mpmc_sim(got, kP, kPer);
}

TEST(SimSbqQueue, PrefillThenDrain) {
  Machine m(machine_for(2));
  SimSbq q(m, {.enqueuers = 1, .dequeuers = 1});
  m.spawn([](Machine& m, SimSbq& q) -> Task<void> {
    co_await q.prefill(m.core(0), kFirstElement, 100);
    for (Value i = 0; i < 100; ++i) {
      EXPECT_EQ(co_await q.dequeue(m.core(1), 0), kFirstElement + i);
    }
    EXPECT_EQ(co_await q.dequeue(m.core(1), 0), 0u);
  }(m, q));
  m.run();
}

}  // namespace
}  // namespace sbq::simq
