// Protocol litmus tests for the MSI directory simulator: state transitions,
// value propagation through owner hand-offs, invalidation/ack collection,
// atomicity of RMWs, and the stall behaviour contended RMW chains rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace sbq::sim {
namespace {

using DirState = Directory::LineState;
using CoreState = Core::LineState;

MachineConfig small_machine(int cores) {
  MachineConfig cfg;
  cfg.cores = cores;
  return cfg;
}

TEST(SimProtocol, LoadMissFetchesFromLlc) {
  Machine m(small_machine(2));
  const Addr x = m.alloc();
  m.directory().poke(x, 1234);
  Value got = 0;
  m.spawn([](Machine& m, Addr x, Value* got) -> Task<void> {
    *got = co_await m.core(0).load(x);
  }(m, x, &got));
  m.run();
  EXPECT_EQ(got, 1234u);
  EXPECT_EQ(m.core(0).line_state(x), CoreState::kShared);
  EXPECT_EQ(m.directory().line_state(x), DirState::kShared);
  EXPECT_EQ(m.directory().sharer_count(x), 1u);
}

TEST(SimProtocol, LoadHitCostsOneCycleNoTraffic) {
  Machine m(small_machine(1));
  const Addr x = m.alloc();
  m.directory().poke(x, 5);
  Time first_done = 0, second_done = 0;
  m.spawn([](Machine& m, Addr x, Time* t1, Time* t2) -> Task<void> {
    co_await m.core(0).load(x);
    *t1 = m.engine().now();
    co_await m.core(0).load(x);
    *t2 = m.engine().now();
  }(m, x, &first_done, &second_done));
  const auto msgs_before = m.interconnect().messages_sent();
  m.run();
  EXPECT_EQ(second_done - first_done, m.config().hit_latency);
  // The second load generated no messages: only GetS + Data from the first.
  EXPECT_EQ(m.interconnect().messages_sent() - msgs_before, 2u);
}

TEST(SimProtocol, StoreMissTakesOwnership) {
  Machine m(small_machine(2));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(1).store(x, 77);
  }(m, x));
  m.run();
  EXPECT_EQ(m.core(1).line_state(x), CoreState::kModified);
  EXPECT_EQ(m.directory().line_state(x), DirState::kModified);
  EXPECT_EQ(m.directory().line_owner(x), 1);
}

TEST(SimProtocol, WriteInvalidatesReaders) {
  Machine m(small_machine(3));
  const Addr x = m.alloc();
  m.directory().poke(x, 1);
  // Cores 0 and 1 read, then core 2 writes; finally core 0 re-reads and
  // must see the new value (fetched via Fwd-GetS from core 2).
  Value reread = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    co_await m.core(0).load(x);
    co_await m.core(1).load(x);
    co_await m.core(2).store(x, 99);
    EXPECT_EQ(m.core(0).line_state(x), Core::LineState::kInvalid);
    EXPECT_EQ(m.core(1).line_state(x), Core::LineState::kInvalid);
    *out = co_await m.core(0).load(x);
  }(m, x, &reread));
  m.run();
  EXPECT_EQ(reread, 99u);
  // The Fwd-GetS was served by the writer, which stays in Owned state while
  // its write-back travels; once the WB lands the directory is Shared.
  EXPECT_EQ(m.directory().line_state(x), DirState::kShared);
  EXPECT_EQ(m.core(2).line_state(x), CoreState::kOwned);
  EXPECT_EQ(m.core(0).line_state(x), CoreState::kShared);
}

TEST(SimProtocol, OwnerHandoffCarriesValue) {
  Machine m(small_machine(3));
  const Addr x = m.alloc();
  // Three writers in sequence; each must observe the previous value via
  // the Fwd-GetM owner hand-off (dir never sees the intermediate values).
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 10);
    const Value v1 = co_await m.core(1).faa(x, 5);
    EXPECT_EQ(v1, 10u);
    const Value v2 = co_await m.core(2).faa(x, 1);
    EXPECT_EQ(v2, 15u);
    const Value final = co_await m.core(0).load(x);
    EXPECT_EQ(final, 16u);
  }(m, x));
  m.run();
}

TEST(SimProtocol, CasSemantics) {
  Machine m(small_machine(2));
  const Addr x = m.alloc();
  m.directory().poke(x, 7);
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    EXPECT_EQ(co_await m.core(0).cas(x, 7, 8), 1u);
    EXPECT_EQ(co_await m.core(0).cas(x, 7, 9), 0u);
    EXPECT_EQ(co_await m.core(1).load(x), 8u);
    EXPECT_EQ(co_await m.core(1).swap(x, 100), 8u);
    EXPECT_EQ(co_await m.core(0).load(x), 100u);
  }(m, x));
  m.run();
}

TEST(SimProtocol, ConcurrentFaasAllApply) {
  constexpr int kCores = 8;
  constexpr int kOpsPerCore = 25;
  Machine m(small_machine(kCores));
  const Addr x = m.alloc();
  for (int c = 0; c < kCores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      for (int i = 0; i < kOpsPerCore; ++i) {
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
  EXPECT_EQ(final, static_cast<Value>(kCores * kOpsPerCore));
}

TEST(SimProtocol, ConcurrentCasExactlyOneWinnerPerRound) {
  constexpr int kCores = 6;
  constexpr int kRounds = 30;
  Machine m(small_machine(kCores));
  const Addr x = m.alloc();
  const Addr wins_base = m.alloc(kCores);
  auto barrier = std::make_shared<SimBarrier>(m.engine(), kCores);
  for (int c = 0; c < kCores; ++c) {
    m.spawn([](Machine& m, int c, Addr x, Addr wins,
               std::shared_ptr<SimBarrier> b) -> Task<void> {
      Value my_wins = 0;
      for (Value round = 0; round < kRounds; ++round) {
        co_await b->arrive_and_wait();
        if (co_await m.core(c).cas(x, round, round + 1) != 0) ++my_wins;
        co_await b->arrive_and_wait();
      }
      co_await m.core(c).store(wins + static_cast<Addr>(c), my_wins);
    }(m, c, x, wins_base, barrier));
  }
  m.run();
  Value total = 0;
  for (int c = 0; c < kCores; ++c) {
    total += m.directory().peek(wins_base + static_cast<Addr>(c));
  }
  // Directory peek only sees written-back values; read through a core.
  Value total2 = 0;
  m.spawn([](Machine& m, Addr wins, Value* out) -> Task<void> {
    Value sum = 0;
    for (int c = 0; c < kCores; ++c) {
      sum += co_await m.core(0).load(wins + static_cast<Addr>(c));
    }
    *out = sum;
  }(m, wins_base, &total2));
  m.run();
  EXPECT_EQ(total2, static_cast<Value>(kRounds));
  (void)total;
}

TEST(SimProtocol, ContendedFaaLatencyGrowsLinearly) {
  // The heart of §3.2: average contended-RMW latency is linear in the core
  // count. Measure mean FAA latency at 4 and at 16 cores; the ratio must be
  // roughly 4x (we accept 2.5x..6x).
  auto mean_faa_latency = [](int cores) {
    Machine m(small_machine(cores));
    const Addr x = m.alloc();
    auto total_lat = std::make_shared<double>(0.0);
    auto ops = std::make_shared<std::uint64_t>(0);
    constexpr int kOps = 60;
    for (int c = 0; c < cores; ++c) {
      m.spawn([](Machine& m, int c, Addr x, std::shared_ptr<double> lat,
                 std::shared_ptr<std::uint64_t> n) -> Task<void> {
        for (int i = 0; i < kOps; ++i) {
          const Time start = m.engine().now();
          co_await m.core(c).faa(x, 1);
          *lat += static_cast<double>(m.engine().now() - start);
          ++*n;
        }
      }(m, c, x, total_lat, ops));
    }
    m.run();
    return *total_lat / static_cast<double>(*ops);
  };
  const double l4 = mean_faa_latency(4);
  const double l16 = mean_faa_latency(16);
  EXPECT_GT(l16 / l4, 2.5) << "l4=" << l4 << " l16=" << l16;
  EXPECT_LT(l16 / l4, 6.0) << "l4=" << l4 << " l16=" << l16;
}

TEST(SimProtocol, NumaLatencyHigherAcrossSockets) {
  MachineConfig cfg;
  cfg.cores = 4;
  cfg.sockets = 2;  // cores 0,1 on socket 0; cores 2,3 on socket 1
  Machine m(cfg);
  EXPECT_EQ(m.interconnect().socket_of(0), 0);
  EXPECT_EQ(m.interconnect().socket_of(1), 0);
  EXPECT_EQ(m.interconnect().socket_of(2), 1);
  EXPECT_EQ(m.interconnect().socket_of(3), 1);
  EXPECT_EQ(m.interconnect().latency(0, 1), cfg.intra_latency);
  EXPECT_EQ(m.interconnect().latency(0, 2), cfg.inter_latency);
  // Remote loads take longer than local ones.
  const Addr x = m.alloc();
  Time local_done = 0, remote_done = 0;
  m.spawn([](Machine& m, Addr x, Time* local, Time* remote) -> Task<void> {
    const Time t0 = m.engine().now();
    co_await m.core(0).load(x);  // directory homed on socket 0
    *local = m.engine().now() - t0;
    const Time t1 = m.engine().now();
    co_await m.core(2).load(x + 1000);
    *remote = m.engine().now() - t1;
  }(m, x, &local_done, &remote_done));
  m.run();
  EXPECT_GT(remote_done, local_done);
}

TEST(SimProtocol, MachineRunDetectsCompletion) {
  Machine m(small_machine(1));
  m.spawn([](Machine& m) -> Task<void> {
    co_await m.core(0).think(100);
  }(m));
  EXPECT_EQ(m.spawned(), 1u);
  m.run();
  EXPECT_EQ(m.finished(), 1u);
  EXPECT_GE(m.engine().now(), 100u);
}

Task<void> txcas_program(Machine& m, Addr x, Time* done, bool* ok) {
  *ok = co_await m.core(0).txcas(x, 0, 1);
  *done = m.engine().now();
}

// A core holds one request at a time. Its edge path: a TxCAS write-phase
// abort lands while the attempt's GetM is in flight, so the retry's
// read-acquire finds that stale request and parks as a waiter. When the
// GetM completes, the stale attempt only releases the line; the waiter
// then re-runs, hits the now-owned line, and the retry commits.
TEST(SimProtocol, TxCasRetryParksBehindAbortedAttemptsGetM) {
  MachineConfig cfg = small_machine(2);
  cfg.check_invariants = true;

  // The uninterrupted run times the GetM: it completes one hit before the
  // operation does, and its Data spends intra_latency on the wire.
  Time done = 0;
  bool ok = false;
  {
    Machine m(cfg);
    const Addr x = m.alloc();
    m.spawn(txcas_program(m, x, &done, &ok));
    m.run();
    ASSERT_TRUE(ok);
    EXPECT_EQ(m.stats().core_htm(0).attempts, 1u);
  }
  const Time getm_done = done - cfg.hit_latency;
  const Time fault_at = getm_done - cfg.intra_latency;

  Machine m(cfg);
  const Addr x = m.alloc();
  m.spawn(txcas_program(m, x, &done, &ok));
  // Probes are coroutines the engine resumes at a set cycle, ahead of
  // every event the run schedules for that cycle.
  Task<void> fault = [](Machine& m) -> Task<void> {
    m.core(0).inject_fault(FaultKind::kInterrupt);
    co_return;
  }(m);
  m.engine().schedule_resume(fault_at, fault.handle());
  // The abort schedules the retry one cycle later; look a cycle after that.
  struct ProbeResult {
    bool pending = false;
    bool quiescent = true;
    std::uint64_t attempts = 0;
  } at_probe;
  Task<void> look = [](Machine& m, Addr x, ProbeResult& r) -> Task<void> {
    r.pending = m.core(0).has_pending(x);
    r.quiescent = m.core(0).quiescent();
    r.attempts = m.stats().core_htm(0).attempts;
    co_return;
  }(m, x, at_probe);
  m.engine().schedule_resume(fault_at + 2, look.handle());
  m.run();

  EXPECT_EQ(at_probe.attempts, 2u) << "the retry had not started";
  EXPECT_TRUE(at_probe.pending) << "the aborted attempt's GetM had landed";
  EXPECT_FALSE(at_probe.quiescent);
  EXPECT_TRUE(ok);
  EXPECT_GT(done, getm_done);
  const HtmCounters& s = m.stats().core_htm(0);
  EXPECT_EQ(s.aborts[static_cast<std::size_t>(AbortCause::kInterrupt)], 1u);
  EXPECT_EQ(s.attempts, 2u);
  EXPECT_EQ(s.successes, 1u);
  EXPECT_EQ(s.fallbacks + s.fallback_cas, 0u);
  EXPECT_TRUE(m.core(0).quiescent());
  EXPECT_FALSE(m.core(0).has_pending(x));
  EXPECT_EQ(m.core(0).line_state(x), CoreState::kModified);
}

// Every message a run sends, in send order (an Interconnect send observer).
struct Send {
  Time t;
  CoreId src, dst;
  Message msg;
};
void record_send(void* ctx, Time t, CoreId src, CoreId dst,
                 const Message& msg) {
  static_cast<std::vector<Send>*>(ctx)->push_back({t, src, dst, msg});
}

// Core 1's GetS reaches the directory just ahead of core 2's GetM, so its
// data comes from the owner (core 0) while the Inv comes straight from the
// directory and arrives first. The load still returns the value before the
// write: the Inv is deferred until the load has observed the data, and the
// writer cannot complete before it gets that Inv's ack.
TEST(SimProtocol, InvOvertakingGetSDataStillReturnsPreWriteValue) {
  MachineConfig cfg = small_machine(3);
  cfg.check_invariants = true;
  Machine m(cfg);
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 5);
  }(m, x));
  m.run();

  std::vector<Send> sends;
  m.interconnect().set_send_observer(record_send, &sends);
  Value loaded = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(1).load(x);
  }(m, x, &loaded));
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(2).store(x, 9);
  }(m, x));
  m.run();

  const CoreId dir = m.interconnect().directory_id();
  const auto sent_at = [&](MsgType type, CoreId src, CoreId dst) {
    for (const Send& s : sends) {
      if (s.msg.type == type && s.src == src && s.dst == dst) return s.t;
    }
    ADD_FAILURE() << msg_type_name(type) << " " << src << "->" << dst
                  << " never sent";
    return Time{0};
  };
  // Same hop latency, so the earlier send arrives first.
  EXPECT_LT(sent_at(MsgType::kInv, dir, 1), sent_at(MsgType::kData, 0, 1));
  EXPECT_EQ(loaded, 5u);
  EXPECT_EQ(m.core(1).line_state(x), CoreState::kInvalid);
  EXPECT_EQ(m.core(2).line_state(x), CoreState::kModified);

  Value after = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(0).load(x);
  }(m, x, &after));
  m.run();
  EXPECT_EQ(after, 9u);
}

// The directory answers an owner's O->M upgrade with a Data that carries
// only the ack count (value 0: the LLC copy is stale in O), and the
// upgrader keeps its own value. On FIFO links the owner's write-back
// always lands before its upgrade and turns the line Shared first, so a
// probe handler holds that write-back back until the upgrade has completed.
TEST(SimProtocol, OwnerUpgradeDataCarriesZeroAndUpgraderKeepsItsValue) {
  Machine m(small_machine(3));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x) -> Task<void> {
    co_await m.core(0).store(x, 1111);
  }(m, x));
  m.run();

  // The machine's own event handler, except that core 0's write-backs are
  // held.
  struct Probe {
    Machine* m;
    std::vector<Message> held;
  } probe{&m, {}};
  m.engine().set_handler(
      [](void* ctx, const Event& ev) {
        Probe& p = *static_cast<Probe*>(ctx);
        if (ev.kind == EventKind::kDeliver &&
            ev.msg.type == MsgType::kWbData && ev.msg.src == 0) {
          p.held.push_back(ev.msg);
        } else {
          Machine::on_event(p.m, ev);
        }
      },
      &probe);
  std::vector<Send> sends;
  m.interconnect().set_send_observer(record_send, &sends);

  Value old = 0;
  m.spawn([](Machine& m, Addr x, Value* old) -> Task<void> {
    co_await m.core(1).load(x);  // core 0 -> O, its write-back held
    EXPECT_EQ(m.directory().line_state(x), DirState::kOwned);
    EXPECT_EQ(m.directory().line_owner(x), 0);
    *old = co_await m.core(0).faa(x, 1);  // O -> M upgrade
  }(m, x, &old));
  m.run();
  EXPECT_EQ(old, 1111u);
  EXPECT_EQ(m.core(0).line_state(x), CoreState::kModified);
  EXPECT_EQ(m.core(1).line_state(x), CoreState::kInvalid);

  const CoreId dir = m.interconnect().directory_id();
  int upgrade_data = 0;
  for (const Send& s : sends) {
    if (s.msg.type != MsgType::kData || s.src != dir || s.dst != 0) continue;
    ++upgrade_data;
    EXPECT_EQ(s.msg.value, 0u);
    EXPECT_EQ(s.msg.ack_count, 1);
  }
  EXPECT_EQ(upgrade_data, 1);

  // The held write-back is stale by now (the line is M): dropped.
  ASSERT_EQ(probe.held.size(), 1u);
  m.directory().handle(probe.held.front());
  Value seen = 0;
  m.spawn([](Machine& m, Addr x, Value* out) -> Task<void> {
    *out = co_await m.core(2).load(x);
  }(m, x, &seen));
  m.run();
  EXPECT_EQ(m.directory().stats().wb_dropped, 1u);
  EXPECT_EQ(seen, 1112u);
}

}  // namespace
}  // namespace sbq::sim
