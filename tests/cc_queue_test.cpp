// Tests for the CC-Synch combining queue.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "queues/cc_queue.hpp"
#include "queues/queue_traits.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

static_assert(ConcurrentQueue<CcQueue<int>, int>);

TEST(CcQueue, NodeRecyclingKeepsFifo) {
  CcQueue<int> q(1);
  int vals[8];
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i) q.enqueue(&vals[i], 0);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(q.dequeue(0), &vals[i]);
  }
  EXPECT_EQ(q.dequeue(0), nullptr);
}

TEST(CcQueue, CombinerServesOthers) {
  // Two threads hammer the queue; the combining protocol must route all
  // operations through a single combiner at a time without losing any.
  CcQueue<testutil::Element> q(4);
  std::vector<testutil::Element> storage;
  auto result = testutil::run_mpmc(q, 2, 2, 8000, storage, true);
  testutil::verify_mpmc(result, 2, 8000);
}

TEST(CcQueue, PairwiseFourThreadsConserveElements) {
  // Four threads alternate enqueue and dequeue, so every thread is both a
  // waiter and, often, the combiner. This exercises the record hand-back in
  // apply(): a waiter must not recycle its record before the combiner's
  // last store to it, and the combiner must not read `next` from a record it
  // already handed back. Either race lets two threads combine at once, which
  // crashes or loses elements well within this many rounds on 4 CPUs.
  constexpr int kThreads = 4;
  constexpr std::size_t kRounds = 4000000;  // per thread
  // The queue carries pointers into `items`; `seen` counts how often each
  // one was dequeued (one byte each keeps the test at ~32 MB).
  std::vector<char> items(kThreads * kRounds);
  const std::unique_ptr<std::atomic<std::uint8_t>[]> seen(
      new std::atomic<std::uint8_t>[items.size()]());
  const auto count = [&](const char* d) {
    ASSERT_GE(d, items.data());
    ASSERT_LT(d, items.data() + items.size());
    seen[static_cast<std::size_t>(d - items.data())].fetch_add(
        1, std::memory_order_relaxed);
  };
  CcQueue<char> q(kThreads);
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      char* mine = &items[static_cast<std::size_t>(t) * kRounds];
      barrier.arrive_and_wait();
      for (std::size_t r = 0; r < kRounds; ++r) {
        q.enqueue(mine + r, t);
        if (const char* d = q.dequeue(t)) count(d);
      }
    });
  }
  for (auto& th : threads) th.join();
  while (const char* d = q.dequeue(0)) count(d);

  std::size_t wrong = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (seen[i].load(std::memory_order_relaxed) != 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0u) << "elements lost or dequeued more than once";
}

}  // namespace
}  // namespace sbq
