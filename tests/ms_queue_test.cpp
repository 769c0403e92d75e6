// Tests for the Michael–Scott queue baseline.
#include <gtest/gtest.h>

#include "queues/ms_queue.hpp"
#include "queues/queue_traits.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

static_assert(ConcurrentQueue<MsQueue<int>, int>);

TEST(MsQueue, InterleavedEnqueueDequeue) {
  MsQueue<int> q(1);
  int vals[100];
  for (int i = 0; i < 100; ++i) {
    q.enqueue(&vals[i], 0);
    if (i % 3 == 2) {
      // Drain two, keeping the queue non-trivial.
      EXPECT_NE(q.dequeue(0), nullptr);
      EXPECT_NE(q.dequeue(0), nullptr);
    }
  }
  int drained = 0;
  while (q.dequeue(0) != nullptr) ++drained;
  EXPECT_EQ(drained + 66, 100);
}

TEST(MsQueue, EmptyAfterDrainThenReusable) {
  MsQueue<int> q(1);
  int a = 1;
  q.enqueue(&a, 0);
  EXPECT_EQ(q.dequeue(0), &a);
  EXPECT_EQ(q.dequeue(0), nullptr);
  q.enqueue(&a, 0);
  EXPECT_EQ(q.dequeue(0), &a);
}

TEST(MsQueue, SpscLongRun) {
  MsQueue<testutil::Element> q(2);
  std::vector<testutil::Element> storage;
  auto result = testutil::run_mpmc(q, 1, 1, 40000, storage, true);
  testutil::verify_mpmc(result, 1, 40000);
  // Single consumer: global FIFO must hold exactly.
  const auto& seq = result.per_consumer[0];
  for (std::size_t i = 0; i < seq.size(); ++i) EXPECT_EQ(seq[i]->seq, i);
}

}  // namespace
}  // namespace sbq
