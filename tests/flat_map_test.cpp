// FlatMap unit tests: insert-only open-addressing semantics, key 0 as the
// empty-slot marker, growth under strided keys, reference stability and
// allocation freedom within a reserved capacity, move-only values, and a
// differential fuzz against std::unordered_map. Then the line table built
// on it: per-core 2-bit states across the word boundaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hpp"
#include "sim/line_table.hpp"

// TU-local allocation counter so the reserve test can assert that
// insertions within a reserved capacity never allocate (the property the
// whole-machine sim_microbench gate depends on). Counts every global
// operator new in the test binary; tests snapshot around the window they
// care about.
namespace {
std::atomic<std::uint64_t> g_news{0};
void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sbq::sim {
namespace {

TEST(FlatMap, InsertFindBasics) {
  FlatMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.count(7), 0u);
  m[7] = 70;
  m[8] = 80;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(7), 70);
  EXPECT_EQ(m.find(8)->second, 80);
  EXPECT_EQ(m.find(9), m.end());
  m[7] = 71;  // an existing key is updated in place, not inserted again
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(7), 71);
}

TEST(FlatMap, FindZeroIsAbsent) {
  // Key 0 marks an empty slot, so a probe for it must not match one.
  FlatMap<int> m;
  EXPECT_EQ(m.find(0), m.end());
  for (Addr k = 1; k <= 5; ++k) m[k] = static_cast<int>(k);
  EXPECT_EQ(m.find(0), m.end());
  EXPECT_EQ(m.count(0), 0u);
  const FlatMap<int>& cm = m;
  EXPECT_EQ(cm.find(0), cm.end());
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<std::uint64_t> m;
  EXPECT_EQ(m[42], 0u);
  m[42] += 5;
  EXPECT_EQ(m.at(42), 5u);
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce) {
  FlatMap<int> m;
  std::unordered_map<Addr, int> ref;
  for (Addr k = 1; k <= 100; ++k) {
    m[k * 977] = static_cast<int>(k);
    ref[k * 977] = static_cast<int>(k);
  }
  std::unordered_map<Addr, int> seen;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(seen.count(k), 0u) << "duplicate key in iteration";
    seen[k] = v;
  }
  EXPECT_EQ(seen, ref);
}

TEST(FlatMap, ReferencesStableWithoutRehash) {
  FlatMap<int> m;
  m.reserve(64);
  m[1] = 10;
  int* p = &m.at(1);
  // Inserting within the reserved capacity must not move existing entries.
  for (Addr k = 2; k <= 60; ++k) m[k] = static_cast<int>(k);
  EXPECT_EQ(p, &m.at(1));
  EXPECT_EQ(*p, 10);
}

TEST(FlatMap, StridedKeysAreFoundAfterGrowth) {
  // Line and page strides leave the low key bits constant; the index comes
  // from the top bits of the hash product, so they must still spread.
  for (const Addr stride : {Addr{64}, Addr{4096}}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    FlatMap<Addr> m;
    constexpr Addr kKeys = 5000;  // several doublings from 16 slots
    for (Addr i = 1; i <= kKeys; ++i) m[i * stride] = i;
    ASSERT_EQ(m.size(), kKeys);
    for (Addr i = 1; i <= kKeys; ++i) {
      const auto it = m.find(i * stride);
      ASSERT_NE(it, m.end());
      EXPECT_EQ(it->second, i);
      EXPECT_EQ(m.count(i * stride + 1), 0u);
    }
  }
}

TEST(FlatMap, ReserveMakesInsertionsAllocationFree) {
  FlatMap<std::uint64_t> m;
  m.reserve(4096);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (Addr k = 1; k <= 4096; ++k) m[k * 64] = k;
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u)
      << "an insertion within the reserved capacity allocated";
  EXPECT_EQ(m.size(), 4096u);
  EXPECT_EQ(m.at(4096 * 64), 4096u);
}

TEST(FlatMap, MoveOnlyValues) {
  FlatMap<std::unique_ptr<int>> m;
  for (Addr k = 1; k <= 50; ++k) {
    m[k] = std::make_unique<int>(static_cast<int>(k));  // grows => rehash moves
  }
  for (Addr k = 1; k <= 50; ++k) {
    ASSERT_NE(m.at(k), nullptr);
    EXPECT_EQ(*m.at(k), static_cast<int>(k));
  }
  EXPECT_EQ(m.size(), 50u);
}

TEST(FlatMap, ReserveAvoidsGrowthButKeepsContents) {
  FlatMap<int> m;
  for (Addr k = 1; k <= 10; ++k) m[k] = static_cast<int>(k);
  m.reserve(1000);
  for (Addr k = 1; k <= 10; ++k) EXPECT_EQ(m.at(k), static_cast<int>(k));
  int* p = &m.at(3);
  for (Addr k = 11; k <= 1000; ++k) m[k] = static_cast<int>(k);
  EXPECT_EQ(p, &m.at(3));  // no rehash within the reserved capacity
  EXPECT_EQ(m.size(), 1000u);
}

TEST(FlatMap, DifferentialFuzzAgainstUnorderedMap) {
  FlatMap<std::uint64_t> m;
  std::unordered_map<Addr, std::uint64_t> ref;
  std::uint64_t rng = 0x243F6A8885A308D3ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 200000; ++step) {
    const Addr key = 1 + next() % 4096;  // dense key space => collisions
    switch (next() % 2) {
      case 0: {  // insert/update
        const std::uint64_t v = next();
        m[key] = v;
        ref[key] = v;
        break;
      }
      case 1: {  // lookup
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(m.find(key), m.end());
          EXPECT_EQ(m.count(key), 0u);
        } else {
          ASSERT_NE(m.find(key), m.end());
          EXPECT_EQ(m.find(key)->second, it->second);
        }
        break;
      }
    }
    EXPECT_EQ(m.size(), ref.size());
  }
  std::unordered_map<Addr, std::uint64_t> got;
  for (const auto& [k, v] : m) got[k] = v;
  EXPECT_EQ(got, ref);

  // Keys the stream never drew, and those past its range, are absent.
  for (Addr key = 0; key <= 4200; ++key) {
    EXPECT_EQ(m.count(key), ref.count(key));
  }
}

// Every core's state round-trips through the 2-bit fields, at core counts
// on both sides of each 32-core word boundary and of the 64-core inline
// limit; a line nothing has touched reads Invalid for every core.
TEST(LineTable, CoreStatesRoundTripAcrossWordBoundaries) {
  constexpr LineState kStates[] = {LineState::kInvalid, LineState::kShared,
                                   LineState::kModified, LineState::kOwned};
  for (const int cores : {1, 32, 44, 64, 65, 88, 512}) {
    SCOPED_TRACE("cores " + std::to_string(cores));
    LineTable t;
    t.reserve(4);
    const Addr a = 64, b = 128;
    for (CoreId c = 0; c < cores; ++c) {
      ASSERT_EQ(t.core_state(a, c), LineState::kInvalid);
    }
    EXPECT_EQ(t.find(a), nullptr);

    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    LineRecord& line = t[a];
    for (CoreId c = 0; c < cores; ++c) line.cores.set(c, kStates[(c + 1) % 4]);
    if (cores <= 64) {
      EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u)
          << "per-core states allocated on a machine of <= 64 cores";
    }
    for (CoreId c = 0; c < cores; ++c) {
      ASSERT_EQ(t.core_state(a, c), kStates[(c + 1) % 4]) << "core " << c;
    }
    // Rewriting one core's field leaves its neighbours alone.
    for (CoreId c = 0; c < cores; ++c) {
      line.cores.set(c, kStates[(c + 3) % 4]);
      if (c > 0) {
        ASSERT_EQ(line.cores.get(c - 1), kStates[(c + 2) % 4]);
      }
      ASSERT_EQ(line.cores.get(c), kStates[(c + 3) % 4]);
      if (c + 1 < cores) {
        ASSERT_EQ(line.cores.get(c + 1), kStates[(c + 2) % 4]);
      }
    }

    // Only the last core holds a copy: every other core sees it elsewhere.
    LineRecord& other = t[b];
    EXPECT_FALSE(other.cores.any_valid());
    const CoreId last = cores - 1;
    other.cores.set(last, LineState::kShared);
    EXPECT_TRUE(other.cores.any_valid());
    EXPECT_FALSE(other.cores.valid_except(last));
    if (cores > 1) {
      EXPECT_TRUE(other.cores.valid_except(0));
    }
    other.cores.set(last, LineState::kInvalid);
    EXPECT_FALSE(other.cores.any_valid());
    EXPECT_EQ(t.core_state(b, last), LineState::kInvalid);

    // A copy of the table (a snapshot) keeps every state.
    const LineTable copy = t;
    for (CoreId c = 0; c < cores; ++c) {
      ASSERT_EQ(copy.core_state(a, c), kStates[(c + 3) % 4]);
    }
  }
}

}  // namespace
}  // namespace sbq::sim
