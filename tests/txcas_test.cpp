// Tests for TxCAS semantics. On non-RTM hosts TxCAS degenerates to its
// wait-free plain-CAS fallback, so every semantic test here must hold on
// both backends: TxCAS is a CAS (succeeds iff the target held the expected
// value, exactly one winner under contention).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "htm/cas_policy.hpp"
#include "htm/txcas.hpp"

namespace sbq {
namespace {

TEST(TxCas, SucceedsOnExpectedValue) {
  std::atomic<std::uint64_t> word{5};
  TxCas<std::uint64_t> cas;
  EXPECT_TRUE(cas(word, 5, 9));
  EXPECT_EQ(word.load(), 9u);
}

TEST(TxCas, FailsOnUnexpectedValue) {
  std::atomic<std::uint64_t> word{5};
  TxCas<std::uint64_t> cas;
  EXPECT_FALSE(cas(word, 4, 9));
  EXPECT_EQ(word.load(), 5u);
}

TEST(TxCas, PointerSpecialization) {
  int a = 0, b = 0;
  std::atomic<int*> word{&a};
  TxCas<int*> cas;
  EXPECT_TRUE(cas(word, &a, &b));
  EXPECT_EQ(word.load(), &b);
  EXPECT_FALSE(cas(word, &a, nullptr));
  EXPECT_EQ(word.load(), &b);
}

TEST(TxCas, ZeroDelayConfig) {
  TxCasConfig cfg;
  cfg.intra_txn_delay_ns = 0;
  cfg.post_abort_delay_ns = 0;
  std::atomic<std::uint64_t> word{1};
  TxCas<std::uint64_t> cas(cfg);
  EXPECT_TRUE(cas(word, 1, 2));
  EXPECT_FALSE(cas(word, 1, 3));
  EXPECT_EQ(word.load(), 2u);
}

TEST(TxCas, ExactlyOneWinnerUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<std::uint64_t> word{0};
  TxCas<std::uint64_t> cas;
  SpinBarrier barrier(kThreads);
  std::vector<int> wins(kThreads, 0);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        barrier.arrive_and_wait();
        // All threads CAS round -> round+1; exactly one may succeed.
        if (cas(word, round, round + 1)) ++wins[t];
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();

  int total_wins = 0;
  for (int w : wins) total_wins += w;
  EXPECT_EQ(total_wins, kRounds);  // one winner per round, no lost rounds
  EXPECT_EQ(word.load(), static_cast<std::uint64_t>(kRounds));
}

TEST(TxCas, SequenceLockFreeProgression) {
  // Hammer a counter with CAS-increments from several threads; the counter
  // must reach exactly the number of successful increments.
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 5000;
  std::atomic<std::uint64_t> counter{0};
  TxCasConfig cfg;
  cfg.intra_txn_delay_ns = 4;
  cfg.post_abort_delay_ns = 2;
  TxCas<std::uint64_t> cas(cfg);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        std::uint64_t cur = counter.load(std::memory_order_acquire);
        while (!cas(counter, cur, cur + 1)) {
          cur = counter.load(std::memory_order_acquire);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load(), static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST(CasPolicies, AllImplementCasSemantics) {
  std::atomic<void*> word{nullptr};
  int x = 0;

  DelayedCas delayed{.delay_ns = 2};
  EXPECT_TRUE(delayed(word, static_cast<void*>(nullptr), static_cast<void*>(&x)));
  EXPECT_FALSE(delayed(word, static_cast<void*>(nullptr), static_cast<void*>(&x)));

  word.store(nullptr);
  HtmCas htm_cas;
  EXPECT_TRUE(htm_cas(word, static_cast<void*>(nullptr), static_cast<void*>(&x)));
  EXPECT_FALSE(htm_cas(word, static_cast<void*>(nullptr), static_cast<void*>(&x)));
}

TEST(CasPolicies, DelayedCasPrechecksValue) {
  // DelayedCas must fail fast (without delay side effects) when the value
  // already differs — mirroring TxCAS's self-abort on mismatch.
  std::atomic<int*> word{nullptr};
  int a = 0;
  word.store(&a);
  DelayedCas delayed{.delay_ns = 1u << 30};  // huge delay (~1 s) if taken
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(delayed(word, static_cast<int*>(nullptr), &a));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous bound: the precheck path must not spin the full delay.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 200);
}

}  // namespace
}  // namespace sbq
