// Tests for the common infrastructure: padding, backoff, RNG, barrier,
// percentile edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/barrier.hpp"
#include "common/cacheline.hpp"
#include "common/padded.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace sbq {
namespace {

TEST(Padded, OccupiesWholeCacheLines) {
  EXPECT_EQ(sizeof(Padded<char>) % kCacheLineSize, 0u);
  EXPECT_EQ(alignof(Padded<char>), kCacheLineSize);
  // An array of padded slots puts each slot on its own line.
  Padded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1]);
    EXPECT_GE(b - a, kCacheLineSize);
  }
}

TEST(Padded, DereferenceOperators) {
  Padded<int> p(7);
  EXPECT_EQ(*p, 7);
  *p = 9;
  EXPECT_EQ(p.value, 9);
}

TEST(Backoff, GrowsAndSaturates) {
  // White-box via timing-free behaviour: pause() must terminate and the
  // object must be reusable after reset().
  Backoff b(1, 8);
  for (int i = 0; i < 10; ++i) b.pause();
  b.reset();
  for (int i = 0; i < 10; ++i) b.pause();
  SUCCEED();
}

TEST(SpinForNs, ConversionRoundsUpAndClamps) {
  EXPECT_EQ(relax_iterations(0, ns_per_relax()), 0u);
  EXPECT_EQ(relax_iterations(0, 17.0), 0u);
  // A non-zero delay spins at least once, however cheap or dear a relax is.
  EXPECT_GE(relax_iterations(1, ns_per_relax()), 1u);
  EXPECT_EQ(relax_iterations(1, 0.25), 4u);
  EXPECT_EQ(relax_iterations(1, 17.0), 1u);
  EXPECT_EQ(relax_iterations(17, 17.0), 1u);
  EXPECT_EQ(relax_iterations(18, 17.0), 2u);
  EXPECT_EQ(relax_iterations(270, 17.0), 16u);
  EXPECT_EQ(relax_iterations(270, 4.0), 68u);
  // Huge delays clamp instead of wrapping around.
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(relax_iterations(std::numeric_limits<std::uint64_t>::max(),
                             ns_per_relax()),
            kMax);
  EXPECT_EQ(relax_iterations(std::uint64_t{1} << 40, 0.05), kMax);
  EXPECT_EQ(relax_iterations(std::uint64_t{kMax} * 17, 17.0), kMax);
}

TEST(SpinForNs, CalibratedBeforeMain) {
  const double ns = ns_per_relax();
  EXPECT_GT(ns, 0.0);
  EXPECT_LT(ns, 10'000.0);  // one PAUSE is tens of ns at most
}

TEST(SpinForNs, SpinsAtLeastAQuarterOfTheDelay) {
  // Loose: a spin runs short only if a relax got cheaper after the
  // calibration (say the core clocked up), and a quarter of the asked-for
  // time leaves room for that.
  const auto start = std::chrono::steady_clock::now();
  spin_for_ns(100'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            25);
}

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(123), b(123), c(124);
  const std::uint64_t a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
}

TEST(Xoshiro256, ReproducibleSequences) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, NextBelowInRange) {
  Xoshiro256 r(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256, RoughUniformity) {
  Xoshiro256 r(31337);
  int buckets[10] = {};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++buckets[r.next_below(10)];
  for (int count : buckets) {
    EXPECT_GT(count, kSamples / 10 * 0.9);
    EXPECT_LT(count, kSamples / 10 * 1.1);
  }
}

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counter.fetch_add(1, std::memory_order_acq_rel);
        barrier.arrive_and_wait();
        // After the barrier, every thread of this phase has incremented.
        if (phase_counter.load(std::memory_order_acquire) < (p + 1) * kThreads) {
          violation.store(true, std::memory_order_relaxed);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase_counter.load(), kThreads * kPhases);
}

// Summary::percentile must be total: the service-latency driver calls it on
// whatever samples a sweep cell produced, which can legitimately be nothing
// (every offered op rejected by admission control) and with p values from
// config (p999 = 99.9, but also junk). See stats.hpp for the contract.
TEST(SummaryPercentile, EmptySampleSetYieldsZero) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
}

TEST(SummaryPercentile, OutOfRangePClamps) {
  Summary s;
  for (double v : {10.0, 20.0, 30.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(-1), 10.0);     // clamps to p0 = min
  EXPECT_DOUBLE_EQ(s.percentile(101), 30.0);    // clamps to p100 = max
  EXPECT_DOUBLE_EQ(s.percentile(1e300), 30.0);
  EXPECT_DOUBLE_EQ(
      s.percentile(-std::numeric_limits<double>::infinity()), 10.0);
}

TEST(SummaryPercentile, NanPClampsToMin) {
  Summary s;
  s.add(7.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.percentile(std::numeric_limits<double>::quiet_NaN()),
                   7.0);
}

TEST(SummaryPercentile, TailPercentilesAreMonotone) {
  Summary s;
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    s.add(static_cast<double>(rng.next_below(100000)));
  }
  const double p50 = s.percentile(50);
  const double p99 = s.percentile(99);
  const double p999 = s.percentile(99.9);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, s.max());
}

}  // namespace
}  // namespace sbq
