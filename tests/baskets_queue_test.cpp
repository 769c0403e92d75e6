// Tests for the original (Hoffman–Shalev–Shavit) baskets queue.
#include <gtest/gtest.h>

#include "queues/baskets_queue.hpp"
#include "queues/queue_traits.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

static_assert(ConcurrentQueue<BasketsQueue<int>, int>);

TEST(BasketsQueue, DrainRefillCycles) {
  BasketsQueue<int> q(1);
  int vals[10];
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) q.enqueue(&vals[i], 0);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(q.dequeue(0), &vals[i]);
    EXPECT_EQ(q.dequeue(0), nullptr);
  }
}

TEST(BasketsQueue, ReclaimsDeletedPrefix) {
  // Enough operations to trigger the periodic free_chain path repeatedly;
  // verified by ASAN/valgrind cleanliness and by not crashing.
  BasketsQueue<int> q(1);
  int v = 0;
  for (int i = 0; i < 5000; ++i) {
    q.enqueue(&v, 0);
    EXPECT_EQ(q.dequeue(0), &v);
  }
  EXPECT_EQ(q.dequeue(0), nullptr);
}

TEST(BasketsQueue, ProducerBurstThenDrain) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 2000;
  BasketsQueue<testutil::Element> q(kProducers + 1);
  std::vector<testutil::Element> storage;
  auto result =
      testutil::run_mpmc(q, kProducers, 1, kPerProducer, storage, true);
  testutil::verify_mpmc(result, kProducers, kPerProducer);
}

}  // namespace
}  // namespace sbq
