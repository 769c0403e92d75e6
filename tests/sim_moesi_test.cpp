// Litmus tests for the Owned-state (MOESI) behaviour of the simulated
// protocol: owner-forwarded reads without write-backs, owner upgrades, and
// the ordering races between forwards and a pending upgrade.
#include <gtest/gtest.h>

#include <memory>

#include "sim/machine.hpp"

namespace sbq::sim {
namespace {

using DirState = Directory::LineState;
using CoreState = Core::LineState;

MachineConfig small_machine(int cores, int sockets = 1) {
  MachineConfig cfg;
  cfg.cores = cores;
  cfg.sockets = sockets;
  return cfg;
}

TEST(SimMoesi, WriterServesFirstReadThenWritesBack) {
  Machine m(small_machine(3));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 7);
    EXPECT_EQ(co_await m.core(1).load(x), 7u);
    // The read was owner-forwarded; the directory is transiently Owned
    // until the write-back lands.
    EXPECT_EQ(m.directory().line_owner(x), 0);
  }(m, x));
  m.run();  // drains the write-back
  EXPECT_EQ(m.directory().line_state(x), DirState::kShared);
  EXPECT_EQ(m.directory().line_owner(x), -1);
  EXPECT_EQ(m.directory().peek(x), 7u);  // LLC value fresh after WB
  // The ex-owner keeps a readable (Owned) copy; the reader shares.
  EXPECT_EQ(m.core(0).line_state(x), CoreState::kOwned);
  EXPECT_EQ(m.core(1).line_state(x), CoreState::kShared);
}

TEST(SimMoesi, FirstReadForwardedLaterReadsServedByLlc) {
  Machine m(small_machine(6));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 42);
    for (int c = 1; c < 6; ++c) {
      EXPECT_EQ(co_await m.core(c).load(x), 42u);
    }
  }(m, x));
  m.run();
  // Sequential reads: the first is owner-forwarded; its write-back lands
  // before the next read arrives, so the LLC serves the rest directly.
  EXPECT_EQ(m.directory().line_state(x), DirState::kShared);
  EXPECT_EQ(m.directory().sharer_count(x), 6u);  // 5 readers + ex-owner
  EXPECT_EQ(m.stats().protocol().fwd_gets, 1u);
}

TEST(SimMoesi, OwnerUpgradeInvalidatesSharers) {
  Machine m(small_machine(4));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 1);
    co_await m.core(1).load(x);
    co_await m.core(2).load(x);
    // Owner writes again: O -> M upgrade must invalidate both sharers and
    // must NOT lose the owner's current data.
    co_await m.core(0).store(x, 2);
    EXPECT_EQ(m.core(1).line_state(x), Core::LineState::kInvalid);
    EXPECT_EQ(m.core(2).line_state(x), Core::LineState::kInvalid);
    EXPECT_EQ(co_await m.core(3).load(x), 2u);
  }(m, x));
  m.run();
}

TEST(SimMoesi, OwnerUpgradeKeepsOwnValue) {
  // Regression guard: the directory's Data response for an O->M upgrade
  // carries no payload (the LLC value is stale); the core must keep its
  // own copy.
  Machine m(small_machine(3));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 1111);
    co_await m.core(1).load(x);                  // owner -> O
    const Value old = co_await m.core(0).faa(x, 1);  // O -> M upgrade
    EXPECT_EQ(old, 1111u);
    EXPECT_EQ(co_await m.core(2).load(x), 1112u);
  }(m, x));
  m.run();
}

TEST(SimMoesi, NonOwnerWriteOverOwnedLine) {
  Machine m(small_machine(4));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 5);
    co_await m.core(1).load(x);  // 0 becomes Owned, 1 shares
    co_await m.core(2).store(x, 6);  // invalidation shower (0 and 1)
    EXPECT_EQ(m.core(0).line_state(x), Core::LineState::kInvalid);
    EXPECT_EQ(m.core(1).line_state(x), Core::LineState::kInvalid);
    EXPECT_EQ(co_await m.core(3).load(x), 6u);
  }(m, x));
  m.run();
  // Core 3's read triggered the writer's owner-forward + write-back; after
  // the WB lands the directory holds the line Shared with a fresh copy.
  EXPECT_EQ(m.directory().line_state(x), Directory::LineState::kShared);
  EXPECT_EQ(m.directory().peek(x), 6u);
}

TEST(SimMoesi, ConcurrentUpgradeRaceResolves) {
  // Owner and a sharer race to write. Whichever the directory orders first
  // wins first; both writes must apply, and the final value must reflect
  // both FAAs exactly once.
  Machine m(small_machine(3));
  const Addr x = m.alloc();
  auto barrier = std::make_shared<SimBarrier>(m.engine(), 2);
  m.spawn([](Machine& m, Addr x, std::shared_ptr<SimBarrier> b) -> Task<void> {
    co_await m.core(0).store(x, 100);  // core 0 owner
    co_await m.core(1).load(x);        // core 1 sharer
    co_await b->arrive_and_wait();
    co_await m.core(0).faa(x, 1);
  }(m, x, barrier));
  m.spawn([](Machine& m, Addr x, std::shared_ptr<SimBarrier> b) -> Task<void> {
    co_await b->arrive_and_wait();
    co_await m.core(1).faa(x, 10);
  }(m, x, barrier));
  m.run();
  Value final = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(2).load(x);
  }(m, x, &final));
  m.run();
  EXPECT_EQ(final, 111u);
}

TEST(SimMoesi, UpgradeStormManyOwnedWriters) {
  // Heavier version of the race: a pool of cores alternating loads (making
  // the line Owned + widely shared) and FAAs. The count must be exact.
  constexpr int kCores = 8;
  constexpr int kRounds = 30;
  Machine m(small_machine(kCores));
  const Addr x = m.alloc();
  for (int c = 0; c < kCores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        co_await m.core(c).load(x);
        co_await m.core(c).think(static_cast<Time>(1 + (c * 13 + i) % 17));
        co_await m.core(c).faa(x, 1);
      }
    }(m, c, x));
  }
  m.run();
  Value final = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(0).load(x);
  }(m, x, &final));
  m.run();
  EXPECT_EQ(final, static_cast<Value>(kCores * kRounds));
}

TEST(SimMoesi, ReadHitOnOwnedLine) {
  Machine m(small_machine(2));
  const Addr x = m.alloc();
  Time hit_time = 0;
  m.spawn([](Machine& m, Addr x, Time* hit) -> Task<void> {
    co_await m.core(0).store(x, 3);
    co_await m.core(1).load(x);  // 0 -> Owned
    const Time t0 = m.engine().now();
    EXPECT_EQ(co_await m.core(0).load(x), 3u);  // read hit in O
    *hit = m.engine().now() - t0;
  }(m, x, &hit_time));
  m.run();
  EXPECT_EQ(hit_time, m.config().hit_latency);
}

TEST(SimMoesi, CrossSocketOwnershipChain) {
  // FAAs alternating across sockets: value correctness must hold even when
  // every hand-off crosses the interconnect.
  Machine m(small_machine(4, 2));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await m.core(0).faa(x, 1);  // socket 0
      co_await m.core(2).faa(x, 1);  // socket 1
      co_await m.core(1).load(x);    // interleaved reads force O states
      co_await m.core(3).load(x);
    }
    EXPECT_EQ(co_await m.core(1).load(x), 20u);
  }(m, x));
  m.run();
}

}  // namespace
}  // namespace sbq::sim
