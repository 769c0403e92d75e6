// Additional integration/failure-mode tests for the native queues:
// reclamation under heavy churn, empty/near-empty edge behaviour, id-space
// stress at maximum configured thread counts, and basket behaviour through
// the queue under asymmetric mixes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "basket/sbq_basket.hpp"
#include "common/barrier.hpp"
#include "htm/cas_policy.hpp"
#include "queues/faa_queue.hpp"
#include "queues/native_lineup.hpp"
#include "queues/sbq.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

using testutil::Element;
using SbqHtm = Queue<Element, SbqBasket<Element>, HtmCas>;

TEST(QueueChurn, SbqReclaimsUnderMixedChurn) {
  // Heavy enqueue/dequeue churn where the queue length oscillates: the
  // retired-list scheme must keep the node count bounded (no unbounded
  // growth) while dequeues race with enqueues.
  SbqHtm::Config cfg;
  cfg.max_enqueuers = 2;
  cfg.max_dequeuers = 2;
  SbqHtm q(cfg);
  constexpr int kRounds = 40;
  constexpr std::uint64_t kBurst = 300;
  std::vector<Element> storage(2 * kBurst);
  for (int round = 0; round < kRounds; ++round) {
    SpinBarrier barrier(4);
    std::atomic<std::uint64_t> remaining{2 * kBurst};
    std::vector<std::thread> threads;
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&, p] {
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < kBurst; ++i) {
          q.enqueue(&storage[static_cast<std::size_t>(p) * kBurst + i], p);
        }
      });
    }
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        barrier.arrive_and_wait();
        while (remaining.load(std::memory_order_acquire) > 0) {
          if (q.dequeue(c) != nullptr) {
            remaining.fetch_sub(1, std::memory_order_acq_rel);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(q.dequeue(0), nullptr);
  }
  // After kRounds full drain cycles the list must be a short suffix, not
  // tens of thousands of unreclaimed nodes.
  EXPECT_LT(q.node_count(), 200u);
}

TEST(QueueChurn, FaaQueueSegmentsReclaimed) {
  // Small segments + long run: segments must be retired and freed (ASAN
  // would catch leaks/UAF); the queue stays correct throughout.
  FaaQueue<Element, 8> q(4);
  std::vector<Element> storage(4000);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 400; ++i) {
      q.enqueue(&storage[static_cast<std::size_t>(round * 400 + i) % 4000], 0);
    }
    for (int i = 0; i < 400; ++i) {
      ASSERT_NE(q.dequeue(1), nullptr);
    }
    ASSERT_EQ(q.dequeue(1), nullptr);
  }
}

TEST(QueueEdge, SbqMaxConfiguredThreadsAllActive) {
  // Exercise the full id space (max enqueuers == basket capacity == 44 as
  // in the paper, scaled down run length for test time).
  constexpr int kThreads = 44;
  SbqHtm::Config cfg;
  cfg.max_enqueuers = kThreads;
  cfg.max_dequeuers = kThreads;
  SbqHtm q(cfg);
  constexpr std::uint64_t kPer = 50;
  std::vector<Element> storage;
  auto result = testutil::run_mpmc(q, kThreads, kThreads, kPer, storage);
  testutil::verify_mpmc(result, kThreads, kPer);
}

TEST(QueueEdge, DequeueOnlyThreadsSeeConsistentEmpty) {
  SbqHtm::Config cfg;
  cfg.max_enqueuers = 1;
  cfg.max_dequeuers = 4;
  SbqHtm q(cfg);
  SpinBarrier barrier(4);
  std::atomic<int> non_null{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      barrier.arrive_and_wait();
      for (int i = 0; i < 2000; ++i) {
        if (q.dequeue(c) != nullptr) non_null.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(non_null.load(), 0);
}

TEST(QueueEdge, SingleElementPingPongAcrossAllQueues) {
  // One element bouncing between enqueue and dequeue is the hardest case
  // for empty-detection logic (the queue constantly transitions between
  // empty and size-1). Thread 0 enqueues, thread 1 dequeues.
  for (QueueKind kind : evaluated_queue_kinds()) {
    SCOPED_TRACE(queue_kind_name(kind));
    with_native_queue<Element>(kind, 2, [](auto& q) {
      Element e;
      for (int i = 0; i < 5000; ++i) {
        q.enqueue(&e, 0);
        ASSERT_EQ(q.dequeue(1), &e);
        ASSERT_EQ(q.dequeue(1), nullptr);
      }
    });
  }
}

TEST(QueueEdge, SbqCasPolicyDelayZero) {
  // DelayedCas with zero delay must behave like plain CAS inside the queue.
  using Q = Queue<Element, SbqBasket<Element>, DelayedCas>;
  Q::Config cfg;
  cfg.max_enqueuers = 2;
  cfg.max_dequeuers = 2;
  cfg.cas = DelayedCas{.delay_ns = 0};
  Q q(cfg);
  std::vector<Element> storage;
  auto result = testutil::run_mpmc(q, 2, 2, 2000, storage);
  testutil::verify_mpmc(result, 2, 2000);
}

TEST(QueueEdge, InterleavedProducerRolesOverTime) {
  // The same queue used in alternating producer-only / consumer-only
  // phases: protect/unprotect and node reuse must stay consistent across
  // phase boundaries.
  SbqHtm::Config cfg;
  cfg.max_enqueuers = 3;
  cfg.max_dequeuers = 3;
  SbqHtm q(cfg);
  std::vector<Element> storage(3 * 500);
  for (int phase = 0; phase < 6; ++phase) {
    SpinBarrier barrier(3);
    std::vector<std::thread> threads;
    if (phase % 2 == 0) {
      for (int p = 0; p < 3; ++p) {
        threads.emplace_back([&, p] {
          barrier.arrive_and_wait();
          for (int i = 0; i < 500; ++i) {
            q.enqueue(&storage[static_cast<std::size_t>(p) * 500 + i], p);
          }
        });
      }
    } else {
      std::atomic<int> taken{0};
      for (int c = 0; c < 3; ++c) {
        threads.emplace_back([&, c] {
          barrier.arrive_and_wait();
          while (taken.load(std::memory_order_acquire) < 1500) {
            if (q.dequeue(c) != nullptr) taken.fetch_add(1);
          }
        });
      }
      for (auto& t : threads) t.join();
      threads.clear();
      EXPECT_EQ(q.dequeue(0), nullptr);
    }
    for (auto& t : threads) t.join();
  }
}

}  // namespace
}  // namespace sbq
