// FlatMap unit tests: open-addressing semantics, tombstone hygiene,
// reference stability of non-rehashing operations, move-only values, and a
// differential fuzz against std::unordered_map.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hpp"

// TU-local allocation counter so the churn test can assert FlatMap's
// steady-state is allocation-free (the property the whole-machine
// sim_microbench gate depends on). Counts every global operator new in the
// test binary; tests snapshot around the window they care about.
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

TEST(FlatMap, InsertFindEraseBasics) {
  FlatMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.count(7), 0u);
  m[7] = 70;
  m[8] = 80;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(7), 70);
  EXPECT_EQ(m.find(8)->second, 80);
  EXPECT_EQ(m.find(9), m.end());
  EXPECT_EQ(m.erase(7), 1u);
  EXPECT_EQ(m.erase(7), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.count(7), 0u);
  EXPECT_EQ(m.at(8), 80);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<std::uint64_t> m;
  EXPECT_EQ(m[42], 0u);
  m[42] += 5;
  EXPECT_EQ(m.at(42), 5u);
}

TEST(FlatMap, EraseByIterator) {
  FlatMap<int> m;
  for (Addr k = 1; k <= 10; ++k) m[k] = static_cast<int>(k);
  auto it = m.find(5);
  ASSERT_NE(it, m.end());
  m.erase(it);
  EXPECT_EQ(m.count(5), 0u);
  EXPECT_EQ(m.size(), 9u);
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce) {
  FlatMap<int> m;
  std::unordered_map<Addr, int> ref;
  for (Addr k = 1; k <= 100; ++k) {
    m[k * 977] = static_cast<int>(k);
    ref[k * 977] = static_cast<int>(k);
  }
  for (Addr k = 1; k <= 100; k += 3) {
    m.erase(k * 977);
    ref.erase(k * 977);
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

TEST(FlatMap, ChurnWithFreshKeysIsAllocationFree) {
  // Insert/erase churn over an unbounded fresh-key stream with a tiny live
  // set — the simulator's pending-request table pattern. Tombstone-run
  // cleanup in erase plus allocation-free in-place compaction must keep
  // the table at its initial capacity without ever touching the heap
  // (this is what keeps the whole-machine sim_microbench gate at zero
  // steady-state allocations).
  FlatMap<std::uint64_t> m;
  m[1] = 111;
  for (Addr k = 2; k < 1002; ++k) {  // warm-up: reach steady capacity
    m[k] = k;
    m.erase(k);
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  bool all_erased = true;
  for (Addr k = 1002; k < 101002; ++k) {
    m[k] = k;
    all_erased = all_erased && m.erase(k) == 1;
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u)
      << "steady churn allocated";
  EXPECT_TRUE(all_erased);
  EXPECT_EQ(m.at(1), 111u);
  EXPECT_EQ(m.size(), 1u);
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
  m.erase(25);  // erase resets the slot: the unique_ptr frees eagerly
  EXPECT_EQ(m.count(25), 0u);
  EXPECT_EQ(m.size(), 49u);
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
    const Addr key = 1 + next() % 512;  // dense key space => collisions
    switch (next() % 4) {
      case 0:
      case 1: {  // insert/update
        const std::uint64_t v = next();
        m[key] = v;
        ref[key] = v;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(m.erase(key), ref.erase(key));
        break;
      }
      case 3: {  // lookup
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

  // Erase every key, then look keys up: the emptied table (all tombstones
  // or empty slots, nothing live) must find nothing, then take keys again.
  for (Addr key = 1; key <= 512; ++key) {
    EXPECT_EQ(m.erase(key), ref.erase(key));
  }
  ASSERT_TRUE(m.empty());
  for (Addr key = 0; key <= 600; ++key) {
    EXPECT_EQ(m.find(key), m.end());
    EXPECT_EQ(m.count(key), 0u);
  }
  m[7] = 70;
  ASSERT_NE(m.find(7), m.end());
  EXPECT_EQ(m.find(7)->second, 70u);
  EXPECT_EQ(m.find(8), m.end());
}

}  // namespace
}  // namespace sbq::sim
