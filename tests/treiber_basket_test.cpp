// Tests for the Treiber-stack basket (the modular-framework view of the
// original baskets queue's implicit basket): LIFO extraction, and the
// close-on-empty rule that makes the enclosing queue linearizable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "basket/basket.hpp"
#include "basket/treiber_basket.hpp"
#include "common/barrier.hpp"

namespace sbq {
namespace {

static_assert(Basket<TreiberBasket<int>, int>);

TEST(TreiberBasket, LifoOrder) {
  TreiberBasket<int> b(4);
  int x = 1, y = 2, z = 3;
  EXPECT_TRUE(b.insert(&x, 0));
  EXPECT_TRUE(b.insert(&y, 1));
  EXPECT_TRUE(b.insert(&z, 2));
  EXPECT_EQ(b.extract(0), &z);
  EXPECT_EQ(b.extract(0), &y);
  EXPECT_EQ(b.extract(0), &x);
  EXPECT_EQ(b.extract(0), nullptr);
}

TEST(TreiberBasket, EmptyExtractClosesBasket) {
  TreiberBasket<int> b(2);
  EXPECT_EQ(b.extract(0), nullptr);
  EXPECT_TRUE(b.closed());
  int x = 1;
  EXPECT_FALSE(b.insert(&x, 0));  // inserts fail after closing
}

TEST(TreiberBasket, EmptinessIndicationStable) {
  TreiberBasket<int> b(2);
  int x = 1;
  EXPECT_TRUE(b.insert(&x, 0));
  EXPECT_EQ(b.extract(0), &x);
  EXPECT_EQ(b.extract(0), nullptr);  // indicates empty, closes
  int y = 2;
  EXPECT_FALSE(b.insert(&y, 1));
  EXPECT_EQ(b.extract(0), nullptr);
}

// empty() is an emptiness indication like an empty extract: it must close
// the basket, or the queue's dequeue could skip a basket that a late
// inserter then fills behind head.
TEST(TreiberBasket, EmptyPredicate) {
  TreiberBasket<int> b(2);
  int x = 1, y = 2;
  EXPECT_TRUE(b.insert(&x, 0));
  EXPECT_FALSE(b.empty());
  EXPECT_FALSE(b.closed());  // a non-empty answer leaves the basket open
  EXPECT_EQ(b.extract(0), &x);
  EXPECT_FALSE(b.closed());  // drained by extract, not yet indicated empty
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.closed());
  EXPECT_FALSE(b.insert(&y, 1));
  EXPECT_EQ(b.extract(0), nullptr);
  EXPECT_TRUE(b.empty());  // stable
}

TEST(TreiberBasket, ResetReopens) {
  TreiberBasket<int> b(2);
  EXPECT_EQ(b.extract(0), nullptr);  // closed now
  b.reset(0);
  EXPECT_FALSE(b.closed());
  int x = 1;
  EXPECT_TRUE(b.insert(&x, 0));
  EXPECT_EQ(b.extract(0), &x);
}

TEST(TreiberBasket, ConcurrentMixedNoLossNoDup) {
  constexpr int kInserters = 6;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    TreiberBasket<int> b(kInserters);
    std::vector<int> values(kInserters);
    std::atomic<int> inserted{0};
    SpinBarrier barrier(kInserters + 2);
    std::vector<int*> got1, got2;

    std::vector<std::thread> threads;
    for (int t = 0; t < kInserters; ++t) {
      threads.emplace_back([&, t] {
        barrier.arrive_and_wait();
        if (b.insert(&values[t], t)) inserted.fetch_add(1);
      });
    }
    threads.emplace_back([&] {
      barrier.arrive_and_wait();
      while (int* e = b.extract(0)) got1.push_back(e);
    });
    threads.emplace_back([&] {
      barrier.arrive_and_wait();
      while (int* e = b.extract(1)) got2.push_back(e);
    });
    for (auto& th : threads) th.join();

    std::vector<int*> all(got1);
    all.insert(all.end(), got2.begin(), got2.end());
    // The extract loops ran until null, which closed the basket; anything
    // still inside stays unreachable, so successful inserts may exceed
    // extractions — but extractions must never exceed successful inserts,
    // and must never duplicate.
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
    EXPECT_LE(static_cast<int>(all.size()), inserted.load());
    // And everything extracted must have been inserted by someone.
    for (int* e : all) {
      EXPECT_GE(e, &values[0]);
      EXPECT_LE(e, &values[kInserters - 1]);
    }
  }
}

}  // namespace
}  // namespace sbq
