// Tests for the simulated TxCAS: CAS semantics, abort paths, scalability of
// failures (the core claim of §3), the tripped-writer phenomenon and the
// §3.4.1 microarchitectural fix, and the intra-transaction delay trade-off.
#include <gtest/gtest.h>

#include <memory>

#include "sim/machine.hpp"

namespace sbq::sim {
namespace {

MachineConfig small_machine(int cores, int sockets = 1) {
  MachineConfig cfg;
  cfg.cores = cores;
  cfg.sockets = sockets;
  return cfg;
}

TxCasConfig fast_txcas() {
  TxCasConfig cfg;
  cfg.intra_txn_delay = 40;
  cfg.post_abort_delay = 50;
  return cfg;
}

std::uint64_t explicit_aborts(const HtmCounters& h) {
  return h.aborts[static_cast<std::size_t>(AbortCause::kExplicit)];
}

std::uint64_t tripped_aborts(const HtmCounters& h) {
  return h.aborts[static_cast<std::size_t>(AbortCause::kTrippedWriter)];
}

TEST(SimTxCas, SucceedsUncontended) {
  Machine m(small_machine(1));
  const Addr x = m.alloc();
  m.directory().poke(x, 5);
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    EXPECT_TRUE(co_await m.core(0).txcas(x, 5, 9, fast_txcas()));
    EXPECT_EQ(co_await m.core(0).load(x), 9u);
    EXPECT_FALSE(co_await m.core(0).txcas(x, 5, 11, fast_txcas()));
    EXPECT_EQ(co_await m.core(0).load(x), 9u);
  }(m, x));
  m.run();
  const HtmCounters& s = m.stats().core_htm(0);
  EXPECT_EQ(s.successes, 1u);
  EXPECT_EQ(s.calls - s.successes, 1u);
  EXPECT_EQ(explicit_aborts(s), 1u);
}

TEST(SimTxCas, ExactlyOneWinnerUnderContention) {
  constexpr int kCores = 8;
  constexpr int kRounds = 20;
  Machine m(small_machine(kCores));
  const Addr x = m.alloc();
  const Addr wins = m.alloc(kCores);
  auto barrier = std::make_shared<SimBarrier>(m.engine(), kCores);
  for (int c = 0; c < kCores; ++c) {
    m.spawn([](Machine& m, int c, Addr x, Addr wins,
               std::shared_ptr<SimBarrier> b) -> Task<void> {
      Value my_wins = 0;
      for (Value round = 0; round < kRounds; ++round) {
        co_await b->arrive_and_wait();
        if (co_await m.core(c).txcas(x, round, round + 1, fast_txcas())) {
          ++my_wins;
        }
        co_await b->arrive_and_wait();
      }
      co_await m.core(c).store(wins + static_cast<Addr>(c), my_wins);
    }(m, c, x, wins, barrier));
  }
  m.run();
  Value total = 0;
  m.spawn([](Machine& m, Addr wins, Value* out) -> Task<void> {
    Value sum = 0;
    for (int c = 0; c < kCores; ++c) {
      sum += co_await m.core(0).load(wins + static_cast<Addr>(c));
    }
    *out = sum;
  }(m, wins, &total));
  m.run();
  EXPECT_EQ(total, static_cast<Value>(kRounds));
  Value final = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(0).load(x);
  }(m, x, &final));
  m.run();
  EXPECT_EQ(final, static_cast<Value>(kRounds));
}

TEST(SimTxCas, FailuresAbortConcurrently) {
  // All cores read the word, then contend. Failed TxCASs must abort via
  // invalidations (nested aborts), not by waiting for serialized ownership.
  constexpr int kCores = 12;
  Machine m(small_machine(kCores));
  const Addr x = m.alloc();
  for (int c = 0; c < kCores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      // Stagger the threads a little so the winner's invalidations land in
      // the losers' read/delay phase (lockstep starts would push every
      // conflict into the write phase instead).
      co_await m.core(c).think(static_cast<Time>(1 + c * 45));
      TxCasConfig tx = fast_txcas();
      tx.intra_txn_delay = 160;
      co_await m.core(c).txcas(x, 0, static_cast<Value>(c) + 1, tx);
    }(m, c, x));
  }
  m.run();
  std::uint64_t success = 0, nested = 0, fail = 0;
  for (int c = 0; c < kCores; ++c) {
    const HtmCounters& s = m.stats().core_htm(c);
    success += s.successes;
    nested += s.read_conflicts;
    fail += s.calls - s.successes;
  }
  EXPECT_EQ(success, 1u);
  EXPECT_EQ(fail, static_cast<std::uint64_t>(kCores - 1));
  EXPECT_GT(nested, 0u);  // losers aborted in the read/delay phase
}

TEST(SimTxCas, FailureLatencyIsScalable) {
  // §3.3: failed-TxCAS latency stays roughly constant as contention grows,
  // in contrast to FAA (see SimProtocol.ContendedFaaLatencyGrowsLinearly).
  auto mean_txcas_latency = [](int cores) {
    Machine m(small_machine(cores));
    const Addr x = m.alloc();
    auto total = std::make_shared<double>(0.0);
    auto n = std::make_shared<std::uint64_t>(0);
    constexpr int kOps = 40;
    for (int c = 0; c < cores; ++c) {
      m.spawn([](Machine& m, int c, Addr x, std::shared_ptr<double> total,
                 std::shared_ptr<std::uint64_t> n) -> Task<void> {
        TxCasConfig cfg;  // paper-default delays
        for (int i = 0; i < kOps; ++i) {
          const Value v = co_await m.core(c).load(x);
          const Time start = m.engine().now();
          co_await m.core(c).txcas(x, v, v + 1, cfg);
          *total += static_cast<double>(m.engine().now() - start);
          ++*n;
        }
      }(m, c, x, total, n));
    }
    m.run();
    return *total / static_cast<double>(*n);
  };
  const double l4 = mean_txcas_latency(4);
  const double l16 = mean_txcas_latency(16);
  // Far from the ~4x growth of FAA; allow generous slack.
  EXPECT_LT(l16 / l4, 1.8) << "l4=" << l4 << " l16=" << l16;
}

TEST(SimTxCas, FallbackGuaranteesTermination) {
  // With max_attempts = 0 every TxCAS goes straight to the plain-CAS
  // fallback and must still be correct.
  Machine m(small_machine(4));
  const Addr x = m.alloc();
  TxCasConfig cfg;
  cfg.max_attempts = 0;
  for (int c = 0; c < 4; ++c) {
    m.spawn([](Machine& m, int c, Addr x, TxCasConfig cfg) -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        Value v = co_await m.core(c).load(x);
        while (!co_await m.core(c).txcas(x, v, v + 1, cfg)) {
          v = co_await m.core(c).load(x);
        }
      }
    }(m, c, x, cfg));
  }
  m.run();
  Value final = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(0).load(x);
  }(m, x, &final));
  m.run();
  EXPECT_EQ(final, 80u);
  std::uint64_t fallbacks = 0;
  for (int c = 0; c < 4; ++c) fallbacks += m.stats().core_htm(c).fallbacks;
  EXPECT_GT(fallbacks, 0u);
}

TEST(SimTxCas, TrippedWriterOccursWithReaderInterference) {
  // Figure 3: a writer mid-commit (waiting for its GetM) aborted by a
  // remote read's Fwd-GetS. We force the window with a long ack path: the
  // writer upgrades from S while many sharers exist on a remote socket, and
  // a reader issues a GetS right into the window.
  MachineConfig cfg = small_machine(10, 2);
  cfg.inter_latency = 200;  // wide commit window
  Machine m(cfg);
  const Addr x = m.alloc();
  m.directory().poke(x, 0);

  // Sharers on socket 1 (cores 5..9) read the line so invalidation acks
  // must cross sockets.
  for (int c = 5; c < 10; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      co_await m.core(c).load(x);
    }(m, c, x));
  }
  m.run();

  // Writer on core 0 TxCASes; reader on core 1 reads into the window.
  TxCasConfig tx = fast_txcas();
  tx.intra_txn_delay = 10;
  m.spawn([](Machine& m, Addr x, TxCasConfig tx) -> Task<void> {
    co_await m.core(0).load(x);
    co_await m.core(0).txcas(x, 0, 1, tx);
  }(m, x, tx));
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(1).think(250);  // arrive while the writer awaits acks
    co_await m.core(1).load(x);
  }(m, x));
  m.run();
  EXPECT_GT(tripped_aborts(m.stats().core_htm(0)), 0u)
      << "reader Fwd-GetS should have tripped the writer";
}

TEST(SimTxCas, UarchFixPreventsTrippedWriter) {
  // Same scenario as above with the §3.4.1 fix enabled: the Fwd-GetS is
  // stalled until the commit, and the writer succeeds first try.
  MachineConfig cfg = small_machine(10, 2);
  cfg.inter_latency = 200;
  cfg.uarch_fix = true;
  Machine m(cfg);
  const Addr x = m.alloc();
  for (int c = 5; c < 10; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      co_await m.core(c).load(x);
    }(m, c, x));
  }
  m.run();
  TxCasConfig tx = fast_txcas();
  tx.intra_txn_delay = 10;
  Value reader_saw = 0;
  m.spawn([](Machine& m, Addr x, TxCasConfig tx) -> Task<void> {
    co_await m.core(0).load(x);
    EXPECT_TRUE(co_await m.core(0).txcas(x, 0, 1, tx));
  }(m, x, tx));
  m.spawn([](Machine& m, Addr x, Value* saw) -> Task<void> {
    co_await m.core(1).think(250);
    *saw = co_await m.core(1).load(x);
  }(m, x, &reader_saw));
  m.run();
  EXPECT_EQ(tripped_aborts(m.stats().core_htm(0)), 0u);
  EXPECT_GT(m.stats().core_htm(0).uarch_fix_stalls, 0u);
  // The stalled read observes the committed value.
  EXPECT_EQ(reader_saw, 1u);
}

TEST(SimTxCas, PostAbortCheckFailsFastWhenValueChanged) {
  // When the conflicting writer actually changed the value, the aborted
  // TxCAS must return false after its post-abort check, not retry forever.
  Machine m(small_machine(2));
  const Addr x = m.alloc();
  auto barrier = std::make_shared<SimBarrier>(m.engine(), 2);
  bool loser_result = true;
  m.spawn([](Machine& m, Addr x, std::shared_ptr<SimBarrier> b) -> Task<void> {
    co_await m.core(0).load(x);
    co_await b->arrive_and_wait();
    // Plain store: wins immediately, invalidating the reader mid-delay.
    co_await m.core(0).think(30);
    co_await m.core(0).store(x, 42);
  }(m, x, barrier));
  m.spawn([](Machine& m, Addr x, std::shared_ptr<SimBarrier> b,
             bool* out) -> Task<void> {
    co_await m.core(1).load(x);
    co_await b->arrive_and_wait();
    TxCasConfig tx;
    tx.intra_txn_delay = 500;  // long delay so the store lands inside it
    *out = co_await m.core(1).txcas(x, 0, 7, tx);
  }(m, x, barrier, &loser_result));
  m.run();
  EXPECT_FALSE(loser_result);
  EXPECT_GT(m.stats().core_htm(1).read_conflicts, 0u);
  EXPECT_EQ(m.stats().core_htm(1).attempts, 1u);
}

TEST(SimTxCas, StatsAccounting) {
  Machine m(small_machine(1));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).txcas(x, 0, 1, fast_txcas());
    co_await m.core(0).txcas(x, 1, 2, fast_txcas());
    co_await m.core(0).txcas(x, 0, 3, fast_txcas());  // mismatch
  }(m, x));
  m.run();
  const HtmCounters& s = m.stats().core_htm(0);
  EXPECT_EQ(s.calls, 3u);
  EXPECT_EQ(s.successes, 2u);
  EXPECT_EQ(s.calls - s.successes, 1u);
  EXPECT_EQ(explicit_aborts(s), 1u);
  EXPECT_EQ(s.attempts, 3u);
}

}  // namespace
}  // namespace sbq::sim
