// Parameterized property sweeps for the simulated TxCAS: CAS semantics and
// accounting invariants must hold across delay configurations, contention
// levels, and socket placements.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "sim/machine.hpp"

namespace sbq::sim {
namespace {

// (cores, sockets, intra_txn_delay, post_abort_delay)
using Param = std::tuple<int, int, Time, Time>;

class SimTxCasSweep : public ::testing::TestWithParam<Param> {};

TEST_P(SimTxCasSweep, CounterEndsExact) {
  const auto [cores, sockets, delay, post] = GetParam();
  MachineConfig mcfg;
  mcfg.cores = cores;
  mcfg.sockets = sockets;
  Machine m(mcfg);
  const Addr x = m.alloc();
  TxCasConfig tx;
  tx.intra_txn_delay = delay;
  tx.post_abort_delay = post;
  constexpr int kIncrementsPerCore = 25;

  for (int c = 0; c < cores; ++c) {
    m.spawn([](Machine& m, int c, Addr x, TxCasConfig tx) -> Task<void> {
      Xoshiro256 rng(911 + static_cast<std::uint64_t>(c));
      co_await m.core(c).think(1 + rng.next_below(48));
      for (int i = 0; i < kIncrementsPerCore; ++i) {
        Value v = co_await m.core(c).load(x);
        while (!co_await m.core(c).txcas(x, v, v + 1, tx)) {
          co_await m.core(c).think(1 + rng.next_below(16));
          v = co_await m.core(c).load(x);
        }
      }
    }(m, c, x, tx));
  }
  m.run();

  Value final = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(0).load(x);
  }(m, x, &final));
  m.run();
  EXPECT_EQ(final, static_cast<Value>(cores * kIncrementsPerCore));

  // Accounting invariants: successes + failures == calls; attempts >= calls
  // (each call makes at least one attempt unless it went straight to the
  // wait-free fallback, which still counts as a call resolution).
  std::uint64_t calls = 0, success = 0, fail = 0, attempts = 0, fallbacks = 0;
  for (int c = 0; c < cores; ++c) {
    const HtmCounters& s = m.stats().core_htm(c);
    calls += s.calls;
    success += s.successes;
    fail += s.calls - s.successes;
    attempts += s.attempts;
    fallbacks += s.fallbacks;
  }
  EXPECT_EQ(success + fail, calls);
  EXPECT_EQ(success, static_cast<std::uint64_t>(cores * kIncrementsPerCore));
  EXPECT_GE(attempts + fallbacks, calls);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimTxCasSweep,
    ::testing::Values(Param{1, 1, 675, 130}, Param{2, 1, 675, 130},
                      Param{4, 1, 40, 20}, Param{4, 1, 0, 0},
                      Param{8, 1, 200, 60}, Param{8, 2, 675, 130},
                      Param{6, 2, 40, 400}, Param{12, 1, 675, 130},
                      Param{5, 1, 1500, 130}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "c" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param)) + "_p" +
             std::to_string(std::get<3>(info.param));
    });

// Mixed TxCAS / plain-RMW traffic on the same word: the two must compose
// linearizably (TxCAS's store-buffered commit is atomic w.r.t. RMWs).
class SimTxCasMixedOps : public ::testing::TestWithParam<int> {};

TEST_P(SimTxCasMixedOps, TxCasAndFaaCompose) {
  const int cores = GetParam();
  MachineConfig mcfg;
  mcfg.cores = cores;
  Machine m(mcfg);
  const Addr x = m.alloc();
  constexpr int kOps = 30;
  // Even cores FAA(+1); odd cores TxCAS-increment. Total must be exact.
  for (int c = 0; c < cores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      Xoshiro256 rng(5 + static_cast<std::uint64_t>(c));
      TxCasConfig tx;
      tx.intra_txn_delay = 60;
      tx.post_abort_delay = 60;
      co_await m.core(c).think(1 + rng.next_below(32));
      for (int i = 0; i < kOps; ++i) {
        if (c % 2 == 0) {
          co_await m.core(c).faa(x, 1);
        } else {
          Value v = co_await m.core(c).load(x);
          while (!co_await m.core(c).txcas(x, v, v + 1, tx)) {
            v = co_await m.core(c).load(x);
          }
        }
        co_await m.core(c).think(1 + rng.next_below(8));
      }
    }(m, c, x));
  }
  m.run();
  Value final = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(0).load(x);
  }(m, x, &final));
  m.run();
  EXPECT_EQ(final, static_cast<Value>(cores * kOps));
}

INSTANTIATE_TEST_SUITE_P(Cores, SimTxCasMixedOps,
                         ::testing::Values(2, 3, 4, 6, 8, 10));

}  // namespace
}  // namespace sbq::sim
