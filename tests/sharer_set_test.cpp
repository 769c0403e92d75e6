// SharerSet tests.
//
// SharerSet is a bare bitmask whose iteration order is canonical ascending
// core id, so its differential reference is a std::set<int> (sorted order).
//
// The last test scripts the §3.3 invalidation round end-to-end through the
// Machine: N sharers, one writer, exact Inv/Inv-Ack counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "sim/machine.hpp"
#include "sim/sharer_set.hpp"

namespace sbq::sim {
namespace {

template <typename Seq>
std::vector<int> order_of(const Seq& s) {
  std::vector<int> ids;
  for (int id : s) ids.push_back(id);
  return ids;
}

void expect_same(const SharerSet& s, const std::set<int>& ref, int step) {
  ASSERT_EQ(s.size(), ref.size()) << "step " << step;
  ASSERT_EQ(order_of(s), order_of(ref)) << "step " << step;
}

TEST(SharerSet, BitmaskBasics) {
  SharerSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
  s.insert(3);
  s.insert(3);  // idempotent
  s.insert(0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.erase(1), 0u);
  EXPECT_EQ(s.erase(3), 1u);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size(), 1u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
}

TEST(SharerSet, IterationIsAscendingCoreIdOrder) {
  // Canonical Inv order: ascending core ids regardless of insertion order.
  // Walk past 64 ids so the multi-word bit scan and the SmallBuf heap
  // spill are both covered.
  SharerSet s;
  std::set<int> ref;
  for (int id : {7, 3, 100, 0, 64, 63, 5, 99}) {
    s.insert(id);
    ref.insert(id);
    expect_same(s, ref, id);
  }
  EXPECT_EQ(order_of(s), (std::vector<int>{0, 3, 5, 7, 63, 64, 99, 100}));
  for (int id : {3, 64, 0}) {
    EXPECT_EQ(s.erase(id), ref.erase(id));
    expect_same(s, ref, 1000 + id);
  }
}

TEST(SharerSet, DifferentialFuzzAgainstSortedSet) {
  SharerSet s;
  std::set<int> ref;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 50000; ++step) {
    // Span several bitmask words so the cross-word iterator settles are hit.
    const int id = static_cast<int>(next() % 150);
    switch (next() % 8) {
      case 0:
      case 1:
      case 2:
      case 3:
        s.insert(id);
        ref.insert(id);
        break;
      case 4:
      case 5:
        ASSERT_EQ(s.erase(id), ref.erase(id)) << "step " << step;
        break;
      case 6:
        ASSERT_EQ(s.contains(id), ref.count(id) == 1) << "step " << step;
        break;
      case 7:
        if (next() % 32 == 0) {  // rare: lines do get fully invalidated
          s.clear();
          ref.clear();
        }
        break;
    }
    expect_same(s, ref, step);
  }
}

TEST(SharerSet, CopyAndMovePreserveContents) {
  // Line records live in a FlatMap, which moves them on rehash; the
  // SmallBuf-backed bitmask must survive copy/move in both the inline and
  // the heap-spilled regime.
  for (int count : {5, 130}) {
    SharerSet s;
    std::set<int> ref;
    for (int id = 0; id < count; ++id) {
      s.insert(id * 3 % count);  // non-monotonic insertion order
      ref.insert(id * 3 % count);
    }
    SharerSet copy = s;
    expect_same(copy, ref, count);
    SharerSet moved = std::move(s);
    expect_same(moved, ref, count);
    // The moved-to set must stay fully functional.
    moved.insert(count + 1);
    ref.insert(count + 1);
    expect_same(moved, ref, count + 1);
  }
}

TEST(SharerSet, Section33InvalidationRoundHasExactCounts) {
  // §3.3, scripted: cores 1..3 read line x (three GetS), then core 0
  // writes it (one GetM). The directory must invalidate every sharer —
  // exactly three Inv received, exactly three Inv-Ack collected by the
  // requester — and end with core 0 as exclusive owner.
  MachineConfig cfg;
  cfg.cores = 4;
  Machine m(cfg);
  const Addr x = m.alloc();
  m.directory().poke(x, 7);
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(1).load(x);
    co_await m.core(2).load(x);
    co_await m.core(3).load(x);
    co_await m.core(0).store(x, 8);
  }(m, x));
  m.run();
  const ProtocolCounters& p = m.stats().protocol();
  EXPECT_EQ(p.gets, 3u);
  EXPECT_EQ(p.getm, 1u);
  EXPECT_EQ(p.inv, 3u);
  EXPECT_EQ(p.inv_ack, 3u);
  EXPECT_EQ(p.fwd_gets, 0u);
  EXPECT_EQ(p.fwd_getm, 0u);
  // Each sharer received exactly one Inv; the writer collected every ack.
  for (CoreId c = 1; c < 4; ++c) {
    EXPECT_EQ(m.stats().core_protocol(c).inv, 1u);
  }
  EXPECT_EQ(m.stats().core_protocol(0).inv_ack, 3u);
  EXPECT_EQ(m.directory().line_state(x), Directory::LineState::kModified);
  EXPECT_EQ(m.directory().line_owner(x), 0);
  EXPECT_EQ(m.directory().sharer_count(x), 0u);
  EXPECT_EQ(m.core(0).line_state(x), Core::LineState::kModified);
  for (CoreId c = 1; c < 4; ++c) {
    EXPECT_EQ(m.core(c).line_state(x), Core::LineState::kInvalid);
  }
}

}  // namespace
}  // namespace sbq::sim
