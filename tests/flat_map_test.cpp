// FlatMap unit tests: open-addressing semantics, key 0 as the
// empty-slot marker, growth under strided keys, reference stability and
// allocation freedom within a reserved capacity, move-only values, and a
// differential fuzz (inserts, lookups, erases) against std::unordered_map.
// Then the lookaside hint: keys that share an entry, stale entries after
// growth, decoded and copied tables, and a slot layout pinned to a
// hint-free reference. Then the line table built on it: per-core 2-bit
// states across the word boundaries.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/flat_map.hpp"
#include "sim/line_table.hpp"
#include "sim/machine.hpp"
#include "sim/serialize.hpp"

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
    switch (next() % 3) {
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
      case 2:  // erase, present or not
        m.erase(key);
        ref.erase(key);
        break;
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

// The hint is indexed by the key's low 10 bits, so keys 1024 apart share
// an entry: each lookup overwrites the other's hint, and both must still
// be found, by find and by operator[].
TEST(FlatMapHint, KeysSharingAnEntryAlternate) {
  FlatMap<Addr> m;
  const Addr a = 5, b = 5 + 1024, c = 5 + 2 * 1024;
  m[a] = 1;
  m[b] = 2;
  for (int round = 0; round < 100; ++round) {
    ASSERT_EQ(m.at(a), 1u);
    ASSERT_EQ(m.find(b)->second, 2u);
    ASSERT_EQ(m.count(c), 0u);  // shares the entry, never inserted
    m[a] += 0;                  // an existing key: no insertion
    ASSERT_EQ(m[b], 2u);
  }
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find_ptr(c), nullptr);
  EXPECT_EQ(*m.find_ptr(a), 1u);
}

// Stride 48 is the simulated SBQ node pattern. Looking every key up while
// the table grows leaves hints naming slots of an older layout; a stale
// hint must fall back to the probe.
TEST(FlatMapHint, StridedKeysAreFoundWithStaleHints) {
  constexpr Addr kStride = 48;
  constexpr Addr kKeys = 3000;  // grows 16 -> 4096 slots
  FlatMap<Addr> m;
  std::size_t grows = 0;
  for (Addr i = 1; i <= kKeys; ++i) {
    const std::size_t cap = m.capacity();
    m[i * kStride] = i;
    if (m.capacity() != cap) ++grows;
    for (Addr j = 1; j <= i; j += 1 + i / 64) {
      ASSERT_EQ(m.at(j * kStride), j) << "after inserting " << i;
    }
  }
  EXPECT_GE(grows, 8u);
  for (Addr i = 1; i <= kKeys; ++i) {
    const Addr* v = m.find_ptr(i * kStride);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
    EXPECT_EQ(m.find_ptr(i * kStride + 1), nullptr);
  }
  EXPECT_EQ(m.size(), kKeys);
}

// A decoded line table gets no hints from the blob, and one decoded over a
// larger table must not keep that table's (now out-of-range) hints; a copy
// keeps the original's. Each answers every lookup like the original.
TEST(FlatMapHint, DecodedAndCopiedTablesAnswerLikeTheOriginal) {
  MachineConfig cfg;
  cfg.cores = 2;
  Machine machine(cfg);
  MachineSnapshot snap = machine.snapshot();
  constexpr Addr kLines = 700;
  for (Addr i = 1; i <= kLines; ++i) snap.lines[i * 48].value = i;
  for (Addr i = 1; i <= kLines; ++i) ASSERT_NE(snap.lines.find(i * 48), nullptr);

  const std::uint64_t key = 0x5eed;
  const std::vector<std::uint64_t> words{1, 2, 3};
  const std::vector<std::uint8_t> blob =
      encode_snapshot_blob(snap, words, key);

  MachineSnapshot fresh;
  MachineSnapshot reused = snap;
  for (Addr i = 1; i <= 20 * kLines; ++i) reused.lines[i * 7 + 3].value = 0;
  for (Addr i = 1; i <= 20 * kLines; ++i) {
    ASSERT_NE(reused.lines.find(i * 7 + 3), nullptr);  // hints past 1024 slots
  }
  std::vector<std::uint64_t> out;
  ASSERT_TRUE(decode_snapshot_blob(blob, key, fresh, out));
  ASSERT_TRUE(decode_snapshot_blob(blob, key, reused, out));
  const MachineSnapshot copied = snap;

  const MachineSnapshot* const tables[] = {&fresh, &reused, &copied};
  for (const MachineSnapshot* t : tables) {
    for (Addr a = 1; a <= kLines * 48 + 64; ++a) {
      const LineRecord* want = snap.lines.find(a);
      const LineRecord* got = t->lines.find(a);
      ASSERT_EQ(got == nullptr, want == nullptr) << "addr " << a;
      if (want != nullptr) {
        ASSERT_EQ(got->value, want->value) << "addr " << a;
      }
    }
  }
  EXPECT_EQ(encode_snapshot_blob(fresh, words, key), blob);
  EXPECT_EQ(encode_snapshot_blob(reused, words, key), blob);
}

// FlatMap's index, growth rule and probe without the hint. The hint must
// not move a slot: the snapshot blob persists the exact layout.
class ReferenceLayout {
 public:
  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return size_; }
  const std::vector<Addr>& slots() const { return slots_; }

  // FlatMap::operator[]: grow first, then probe to the key or a hole.
  void touch(Addr key) {
    if ((size_ + 1) * 8 > slots_.size() * 7) grow(size_ + 1);
    std::size_t i = index(key);
    while (slots_[i] != key && slots_[i] != kNullAddr) {
      i = (i + 1) & (slots_.size() - 1);
    }
    if (slots_[i] == kNullAddr) {
      slots_[i] = key;
      ++size_;
    }
  }

 private:
  std::size_t index(Addr key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void grow(std::size_t n) {
    std::size_t cap = slots_.empty() ? 16 : slots_.size();
    while (n * 8 > cap * 7) cap *= 2;
    std::vector<Addr> old = std::move(slots_);
    slots_.assign(cap, kNullAddr);
    shift_ = 64 - std::countr_zero(cap);
    for (const Addr k : old) {
      if (k == kNullAddr) continue;
      std::size_t i = index(k);
      while (slots_[i] != kNullAddr) i = (i + 1) & (cap - 1);
      slots_[i] = k;
    }
  }

  std::vector<Addr> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

// Same capacity, same keys in the same slot order, same gaps between them.
void expect_same_layout(const FlatMap<Addr>& m, const ReferenceLayout& ref) {
  ASSERT_EQ(m.capacity(), ref.capacity());
  ASSERT_EQ(m.size(), ref.size());
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < ref.capacity(); ++i) {
    if (ref.slots()[i] != kNullAddr) want.push_back(i);
  }
  std::size_t n = 0;
  const std::pair<Addr, Addr>* first = nullptr;
  for (const auto& slot : m) {
    ASSERT_LT(n, want.size());
    if (first == nullptr) first = &slot;
    ASSERT_EQ(slot.first, ref.slots()[want[n]]) << "slot order, entry " << n;
    ASSERT_EQ(static_cast<std::size_t>(&slot - first), want[n] - want[0])
        << "slot offset, entry " << n;
    ++n;
  }
  ASSERT_EQ(n, want.size());
}

// A scripted mix of inserts, operator[] on existing keys (always one at
// the 7/8 threshold, where it grows the table without inserting) and
// finds, over strided, shared-hint and dense keys.
TEST(FlatMapHint, SlotLayoutMatchesAHintFreeReference) {
  FlatMap<Addr> m;
  ReferenceLayout ref;
  std::vector<Addr> keys;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::size_t threshold_grows = 0;
  for (int step = 0; step < 6000; ++step) {
    if (!keys.empty() && (m.size() + 1) * 8 > m.capacity() * 7) {
      const Addr k = keys[next() % keys.size()];
      const std::size_t cap = m.capacity();
      m[k] += 1;
      ref.touch(k);
      ASSERT_GT(m.capacity(), cap) << "operator[] at the threshold grows";
      ++threshold_grows;
      ASSERT_NO_FATAL_FAILURE(expect_same_layout(m, ref));
    }
    Addr k = 0;
    switch (next() % 4) {
      case 0:
        k = 48 * (1 + next() % 4096);
        break;
      case 1:
        k = 7 + 1024 * (next() % 64);
        break;
      case 2:
        k = 1 + next() % 8192;
        break;
      case 3:
        if (!keys.empty()) {
          ASSERT_NE(m.find_ptr(keys[next() % keys.size()]), nullptr);
        }
        continue;
    }
    if (m.count(k) == 0) keys.push_back(k);
    m[k] += 1;
    ref.touch(k);
    ASSERT_NO_FATAL_FAILURE(expect_same_layout(m, ref));
  }
  EXPECT_GE(threshold_grows, 5u);
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
