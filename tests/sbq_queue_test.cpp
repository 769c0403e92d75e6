// Tests for SBQ — the scalable baskets queue (Algorithms 2–6), covering
// both evaluated instantiations:
//   SBQ-HTM  = Queue<T, SbqBasket<T>, HtmCas>
//   SBQ-CAS  = Queue<T, SbqBasket<T>, DelayedCas>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "basket/sbq_basket.hpp"
#include "common/barrier.hpp"
#include "htm/cas_policy.hpp"
#include "queues/queue_traits.hpp"
#include "queues/sbq.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

template <typename BasketT, typename CasT>
using Q = Queue<testutil::Element, BasketT, CasT>;

using SbqHtm = Q<SbqBasket<testutil::Element>, HtmCas>;
using SbqCas = Q<SbqBasket<testutil::Element>, DelayedCas>;

static_assert(ConcurrentQueue<SbqHtm, testutil::Element>);

template <typename QueueT>
std::unique_ptr<QueueT> make_queue(std::size_t enq, std::size_t deq,
                                   std::size_t live = 0) {
  typename QueueT::Config cfg{};
  cfg.max_enqueuers = enq;
  cfg.max_dequeuers = deq;
  cfg.live_enqueuers = live;
  return std::make_unique<QueueT>(cfg);
}

// Typed tests run the same battery over every instantiation.
template <typename QueueT>
class SbqTypedTest : public ::testing::Test {};

using QueueTypes = ::testing::Types<SbqHtm, SbqCas>;
TYPED_TEST_SUITE(SbqTypedTest, QueueTypes);

TYPED_TEST(SbqTypedTest, DrainRefillCycles) {
  auto q = make_queue<TypeParam>(1, 1);
  testutil::Element vals[10];
  for (int round = 0; round < 100; ++round) {
    for (auto& v : vals) q->enqueue(&v, 0);
    for (auto& v : vals) EXPECT_EQ(q->dequeue(0), &v);
    EXPECT_EQ(q->dequeue(0), nullptr);
  }
}

TYPED_TEST(SbqTypedTest, InterleavedSingleThread) {
  auto q = make_queue<TypeParam>(1, 1);
  testutil::Element vals[200];
  int deq_at = 0;
  for (int i = 0; i < 200; ++i) {
    q->enqueue(&vals[i], 0);
    if (i % 2 == 1) {
      EXPECT_EQ(q->dequeue(0), &vals[deq_at]);
      ++deq_at;
    }
  }
  while (deq_at < 200) {
    EXPECT_EQ(q->dequeue(0), &vals[deq_at]);
    ++deq_at;
  }
  EXPECT_EQ(q->dequeue(0), nullptr);
}

TYPED_TEST(SbqTypedTest, ProducersOnlyThenDrain) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 2000;
  auto q = make_queue<TypeParam>(kProducers, 1);
  std::vector<testutil::Element> storage;
  auto result = testutil::run_mpmc(*q, kProducers, 1, kPerProducer, storage);
  testutil::verify_mpmc(result, kProducers, kPerProducer);
}

TYPED_TEST(SbqTypedTest, ConsumerHeavy) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 6;
  constexpr std::uint64_t kPerProducer = 5000;
  auto q = make_queue<TypeParam>(kProducers, kConsumers);
  std::vector<testutil::Element> storage;
  auto result =
      testutil::run_mpmc(*q, kProducers, kConsumers, kPerProducer, storage);
  testutil::verify_mpmc(result, kProducers, kPerProducer);
}

// Node recycling: a reclaimed node returns to its enqueuer's pool, so a
// queue kept near empty allocates a bounded number of nodes however many
// operations it serves.

TYPED_TEST(SbqTypedTest, SingleThreadPairsAllocateAtMostTwoNodes) {
  auto q = make_queue<TypeParam>(1, 1);
  testutil::Element v;
  for (int i = 0; i < 100000; ++i) {
    q->enqueue(&v, 0);
    ASSERT_EQ(q->dequeue(0), &v);
  }
  // The sentinel plus two nodes: the head, and the one appended behind it
  // while the previous head still waits to be reclaimed.
  EXPECT_LE(q->nodes_allocated(), 2u);
}

// One round of `threads` threads, each alternating enqueue and dequeue on
// `q`. Checks that every element comes out exactly once.
template <typename QueueT>
void pairwise_round(QueueT& q, int threads, std::size_t pairs) {
  std::vector<testutil::Element> storage(static_cast<std::size_t>(threads) * pairs);
  std::vector<std::vector<testutil::Element*>> got(static_cast<std::size_t>(threads));
  SpinBarrier barrier(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto& mine = got[static_cast<std::size_t>(t)];
      mine.reserve(pairs);
      barrier.arrive_and_wait();
      for (std::size_t i = 0; i < pairs; ++i) {
        q.enqueue(&storage[static_cast<std::size_t>(t) * pairs + i], t);
        // Never NULL: this thread's own enqueue precedes the dequeue.
        mine.push_back(q.dequeue(t));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(q.dequeue(0), nullptr);

  std::vector<std::uint8_t> seen(storage.size(), 0);
  std::size_t nulls = 0;
  for (const auto& mine : got) {
    for (testutil::Element* e : mine) {
      if (e == nullptr) {
        ++nulls;
      } else {
        ++seen[static_cast<std::size_t>(e - storage.data())];
      }
    }
  }
  EXPECT_EQ(nulls, 0u);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), std::uint8_t{1}),
            static_cast<std::ptrdiff_t>(seen.size()));
}

TYPED_TEST(SbqTypedTest, PairwiseThreadsRecycleNodes) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPairs = 100000;
  constexpr std::size_t kBound = kThreads * kPairs / 10;
  // Without recycling nearly every enqueue appends a freshly allocated
  // node, in every round. With it, a round allocates only while more nodes
  // are unreclaimed at once than ever before in this queue. How many that
  // is depends on the host: a thread descheduled inside an operation pins
  // every node appended meanwhile (Algorithm 7 reclaims nothing past its
  // protector). So the bound must hold once the pools have absorbed the
  // worst such stall, in one of a few rounds; conservation holds in all.
  auto q = make_queue<TypeParam>(kThreads, kThreads);
  std::size_t total = 0;
  std::size_t fewest = kThreads * kPairs;
  for (int round = 0; round < 8 && fewest >= kBound; ++round) {
    pairwise_round(*q, kThreads, kPairs);
    if (::testing::Test::HasFailure()) return;
    fewest = std::min(fewest, q->nodes_allocated() - total);
    total = q->nodes_allocated();
  }
  EXPECT_LT(fewest, kBound);
}

// SBQ-specific structural tests (not typed: they peek at indices).

TEST(SbqStructure, IndicesAreConsecutive) {
  auto q = make_queue<SbqHtm>(2, 1);
  testutil::Element vals[10];
  EXPECT_EQ(q->tail_index(), 0u);
  for (auto& v : vals) q->enqueue(&v, 0);
  // A single enqueuer appends one node per element (its basket insert
  // happens in its own fresh node each time since it always wins).
  EXPECT_EQ(q->tail_index(), 10u);
  EXPECT_EQ(q->head_index(), 0u);
  for (auto& v : vals) EXPECT_EQ(q->dequeue(0), &v);
  EXPECT_EQ(q->dequeue(0), nullptr);
}

TEST(SbqStructure, HeadAdvancesAndNodesReclaimed) {
  auto q = make_queue<SbqHtm>(1, 1);
  testutil::Element vals[1000];
  for (auto& v : vals) q->enqueue(&v, 0);
  for (auto& v : vals) EXPECT_EQ(q->dequeue(0), &v);
  // After draining, head has swung to the last node and the retired prefix
  // has been freed: the remaining list must be short.
  EXPECT_LE(q->node_count(), 4u);
  EXPECT_EQ(q->head_index(), 1000u);
}

TEST(SbqStructure, LiveEnqueuersBoundsBasketScan) {
  // Basket capacity 44 (the paper's fixed B), but only 2 live enqueuers:
  // dequeues must not sweep 44 cells to declare emptiness.
  auto q = make_queue<SbqHtm>(44, 1, /*live=*/2);
  testutil::Element a, b;
  q->enqueue(&a, 0);
  q->enqueue(&b, 1);
  EXPECT_NE(q->dequeue(0), nullptr);
  EXPECT_NE(q->dequeue(0), nullptr);
  EXPECT_EQ(q->dequeue(0), nullptr);
}

TEST(SbqStructure, EnqueueDequeueIdSpacesSeparate) {
  // enqueuer id 0 and dequeuer id 0 must be distinct protector slots; this
  // would deadlock/corrupt if they collided.
  auto q = make_queue<SbqHtm>(1, 1);
  testutil::Element v;
  q->enqueue(&v, 0);
  EXPECT_EQ(q->dequeue(0), &v);
}

}  // namespace
}  // namespace sbq
