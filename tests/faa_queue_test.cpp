// Tests for the FAA segment queue (WF-Queue/LCRQ family stand-in).
#include <gtest/gtest.h>

#include "queues/faa_queue.hpp"
#include "queues/queue_traits.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

static_assert(ConcurrentQueue<FaaQueue<int>, int>);

TEST(FaaQueue, CrossesSegmentBoundaries) {
  // Segment size 4 forces frequent segment transitions and retirement.
  FaaQueue<int, 4> q(1);
  int vals[64];
  for (int i = 0; i < 64; ++i) q.enqueue(&vals[i], 0);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(q.dequeue(0), &vals[i]);
  EXPECT_EQ(q.dequeue(0), nullptr);
}

TEST(FaaQueue, AlternatingAcrossSegments) {
  FaaQueue<int, 4> q(1);
  int vals[100];
  for (int i = 0; i < 100; ++i) {
    q.enqueue(&vals[i], 0);
    EXPECT_EQ(q.dequeue(0), &vals[i]);
    EXPECT_EQ(q.dequeue(0), nullptr);
  }
}

TEST(FaaQueue, ManyProducersOneConsumerGlobalOrderPerProducer) {
  constexpr int kProducers = 6;
  constexpr std::uint64_t kPerProducer = 3000;
  FaaQueue<testutil::Element, 128> q(kProducers + 1);
  std::vector<testutil::Element> storage;
  auto result =
      testutil::run_mpmc(q, kProducers, 1, kPerProducer, storage, true);
  testutil::verify_mpmc(result, kProducers, kPerProducer);
}

}  // namespace
}  // namespace sbq
