// sim::Stats registry: scripted coherence rounds with exact expected
// counter values (the Figure 2 setup from bench/fig2_coherence_dynamics),
// abort-cause attribution, per-core and per-line breakdowns, and the
// queue-level basket counters fed by the simulated SBQ.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "benchsupport/sim_workload.hpp"
#include "sim/machine.hpp"
#include "sim/stats.hpp"
#include "simqueue/sim_sbq.hpp"

namespace sbq::sim {
namespace {

// All C cores load `x` into Shared state; returns after quiescence.
void warm_up_shared(Machine& m, Addr x, int cores) {
  for (int c = 0; c < cores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      co_await m.core(c).load(x);
    }(m, c, x));
  }
  m.run();
}

// Figure 2a: C cores in Shared state all CAS the same old value. The RMWs
// serialize through M-state hand-offs: the first writer invalidates the
// other C-1 sharers, every later writer takes the line from the current
// owner via one Fwd-GetM.
TEST(StatsRegistry, StandardCasRoundExactCounts) {
  constexpr int kCores = 4;
  MachineConfig mcfg;
  mcfg.cores = kCores;
  Machine m(mcfg);
  const Addr x = m.alloc();

  warm_up_shared(m, x, kCores);
  EXPECT_EQ(m.stats().protocol().gets, kCores);
  EXPECT_EQ(m.stats().protocol().getm, 0u);

  for (int c = 0; c < kCores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      co_await m.core(c).think(static_cast<Time>(1 + c * 2));
      co_await m.core(c).cas(x, 0, static_cast<Value>(c) + 1);
    }(m, c, x));
  }
  m.run();

  const ProtocolCounters& p = m.stats().protocol();
  EXPECT_EQ(p.gets, kCores);          // warm-up only; CAS never re-reads
  EXPECT_EQ(p.getm, kCores);          // every core upgrades to M once
  EXPECT_EQ(p.inv, kCores - 1);       // first writer invalidates the rest
  EXPECT_EQ(p.inv_ack, kCores - 1);   // ...and collects their acks
  EXPECT_EQ(p.fwd_getm, kCores - 1);  // later writers: owner hand-offs
  EXPECT_EQ(p.fwd_gets, 0u);

  // The snapshot flattens the same counters.
  const MetricsSnapshot snap = m.metrics();
  EXPECT_EQ(snap.protocol.getm, kCores);
  EXPECT_EQ(snap.htm.calls, 0u);
  EXPECT_GT(snap.events, 0u);
  EXPECT_GT(snap.messages, 0u);
}

// Figure 2b: the same round with TxCAS. One winner commits; every loser is
// sitting in its intra-transaction delay when the winner's invalidations
// land, so all C-1 abort with cause kConflict on their first attempt and
// the post-abort value check fails without a retry.
TEST(StatsRegistry, HtmCasRoundExactAbortCounts) {
  constexpr int kCores = 4;
  MachineConfig mcfg;
  mcfg.cores = kCores;
  Machine m(mcfg);
  const Addr x = m.alloc();
  warm_up_shared(m, x, kCores);

  TxCasConfig tx;
  tx.intra_txn_delay = 300;
  for (int c = 0; c < kCores; ++c) {
    m.spawn([](Machine& m, int c, Addr x, TxCasConfig tx) -> Task<void> {
      co_await m.core(c).think(static_cast<Time>(1 + c * 2));
      co_await m.core(c).txcas(x, 0, static_cast<Value>(c) + 1, tx);
    }(m, c, x, tx));
  }
  m.run();

  const HtmCounters& h = m.stats().htm();
  EXPECT_EQ(h.calls, kCores);
  EXPECT_EQ(h.commits, 1u);  // exactly one winner per round
  EXPECT_EQ(h.fallbacks, 0u);
  EXPECT_EQ(h.uarch_fix_stalls, 0u);
  // Every loser's first attempt dies on the winner's write — a data
  // conflict, whichever phase it was caught in. A loser whose retry read
  // then sees the changed value self-aborts (kExplicit) and gives up.
  EXPECT_EQ(h.aborts[static_cast<int>(AbortCause::kConflict)], kCores - 1);
  EXPECT_EQ(h.aborts[static_cast<int>(AbortCause::kCapacity)], 0u);
  EXPECT_EQ(h.aborts[static_cast<int>(AbortCause::kTrippedWriter)], 0u);
  EXPECT_LE(h.aborts[static_cast<int>(AbortCause::kExplicit)], kCores - 1);
  // Bookkeeping identities: every attempt either commits or aborts once,
  // and the retry histogram partitions the calls.
  EXPECT_EQ(h.aborts_total() + h.commits, h.attempts);
  std::uint64_t hist_calls = 0, hist_attempts = 0;
  for (int b = 0; b < HtmCounters::kRetryBuckets; ++b) {
    hist_calls += h.retry_histogram[b];
    hist_attempts +=
        h.retry_histogram[b] * static_cast<std::uint64_t>(b + 1);
  }
  EXPECT_EQ(hist_calls, h.calls);
  EXPECT_EQ(hist_attempts, h.attempts);

  // The losers were all in Shared state, so the winner's GetM invalidated
  // exactly C-1 sharers, each of which acked.
  const ProtocolCounters& p = m.stats().protocol();
  EXPECT_GE(p.getm, 1u);
  EXPECT_EQ(p.inv, kCores - 1);
  EXPECT_EQ(p.inv_ack, kCores - 1);

  // Per-core attribution: exactly one core committed cleanly; every loser
  // carries exactly one conflict abort, and per-core counters sum to the
  // machine-wide view.
  int winners = 0;
  std::uint64_t abort_sum = 0;
  for (int c = 0; c < kCores; ++c) {
    const HtmCounters& hc = m.stats().core_htm(c);
    abort_sum += hc.aborts_total();
    if (hc.commits == 1) {
      ++winners;
      EXPECT_EQ(hc.aborts_total(), 0u) << "core " << c;
    } else {
      EXPECT_EQ(hc.aborts[static_cast<int>(AbortCause::kConflict)], 1u)
          << "core " << c;
    }
  }
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(abort_sum, h.aborts_total());
}

// Algorithm 1's in-transaction value check: a TxCAS whose expected value is
// already stale self-aborts with _xabort(1) — cause kExplicit.
TEST(StatsRegistry, ExplicitAbortAttribution) {
  MachineConfig mcfg;
  mcfg.cores = 1;
  Machine m(mcfg);
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).load(x);
    co_await m.core(0).txcas(x, /*expected=*/99, /*desired=*/5, {});
  }(m, x));
  m.run();

  const HtmCounters& h = m.stats().htm();
  EXPECT_EQ(h.calls, 1u);
  EXPECT_EQ(h.attempts, 1u);
  EXPECT_EQ(h.commits, 0u);
  EXPECT_EQ(h.aborts[static_cast<int>(AbortCause::kExplicit)], 1u);
  EXPECT_EQ(h.aborts_total(), 1u);
  EXPECT_EQ(h.retry_histogram[0], 1u);
}

// §3.4: a remote reader's GetS landing in the writer's commit window trips
// the writer (cause kTrippedWriter); with the §3.4.1 fix the forward is
// stalled instead and no abort happens. Mirrors bench/fig3_tripped_writer.
TEST(StatsRegistry, TrippedWriterVsUarchFix) {
  for (const bool fix : {false, true}) {
    MachineConfig mcfg;
    mcfg.cores = 10;
    mcfg.sockets = 2;
    mcfg.uarch_fix = fix;
    Machine m(mcfg);
    const Addr x = m.alloc();
    for (int c = 5; c < 10; ++c) {
      m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
        co_await m.core(c).load(x);
      }(m, c, x));
    }
    m.run();

    TxCasConfig tx;
    tx.intra_txn_delay = 10;
    tx.post_abort_delay = 90;
    m.spawn([](Machine& m, Addr x, TxCasConfig tx) -> Task<void> {
      co_await m.core(0).load(x);
      co_await m.core(0).txcas(x, 0, 1, tx);
    }(m, x, tx));
    m.spawn([](Machine& m, Addr x) -> Task<void> {
      // Offset 180 lands the Fwd-GetS inside the writer's cross-socket
      // commit window (bench/fig3_tripped_writer's sweep trips at 140-260).
      co_await m.core(1).think(180);
      co_await m.core(1).load(x);
    }(m, x));
    m.run();

    const HtmCounters& h = m.stats().htm();
    if (fix) {
      EXPECT_EQ(h.aborts[static_cast<int>(AbortCause::kTrippedWriter)], 0u);
      EXPECT_GE(h.uarch_fix_stalls, 1u);
    } else {
      EXPECT_GE(h.aborts[static_cast<int>(AbortCause::kTrippedWriter)], 1u);
      EXPECT_EQ(h.uarch_fix_stalls, 0u);
    }
  }
}

// Basket counters fed by the simulated SBQ on a drain workload: every
// successful dequeue is one extraction, every element entered a basket via
// a won or joined append, and draining seals baskets with a consistent
// occupancy summary.
TEST(StatsRegistry, BasketCountersFromSimSbq) {
  constexpr int kThreads = 4;
  constexpr simq::Value kOps = 10;
  MachineConfig mcfg;
  mcfg.cores = kThreads;
  Machine m(mcfg);
  simq::SimSbq::Config qc;
  qc.enqueuers = kThreads;
  qc.dequeuers = kThreads;
  qc.basket_capacity = 44;
  simq::SimSbq q(m, qc);
  simq::WorkloadSpec spec;
  spec.kind = simq::Workload::kConsumerOnly;
  spec.producers = kThreads;  // the prefill threads
  spec.consumers = kThreads;
  spec.ops_per_thread = kOps;
  spec.seed = 42;
  const simq::SimRunResult r = simq::run_spec(m, q, spec, 0);
  const std::uint64_t total_enq =
      static_cast<std::uint64_t>(kThreads) * kOps;  // exact pre-fill count
  ASSERT_EQ(r.deq_ops, total_enq);  // the drain consumed everything

  const BasketCounters& b = m.stats().basket();
  EXPECT_GE(b.appends_won, 1u);
  // Every element entered via a won append or a join; a failed join retries
  // the append, so the attempt total can exceed the element count.
  EXPECT_GE(b.appends_won + b.appends_lost, total_enq);
  // One successful dequeue == one swap that yielded a real element.
  EXPECT_EQ(b.extracted, r.deq_ops);
  EXPECT_GE(b.closes, 1u);
  EXPECT_LE(b.occupancy_min, b.occupancy_max);
  // Close occupancies count distinct elements, so they can't exceed the
  // number enqueued.
  EXPECT_LE(b.occupancy_sum, total_enq);
  EXPECT_GE(b.occupancy_max, 1u);
  // take_or_allocate runs exactly once per enqueue call.
  EXPECT_EQ(b.node_reuses + b.fresh_allocs, total_enq);
}

}  // namespace
}  // namespace sbq::sim
