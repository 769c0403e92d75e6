// Core::poll_until against the plain spin loop it replaces:
//
//   for (;;) { v = co_await load(a); if (v >= want) break; co_await think(gap); }
//
// poll_until parks the core on a valid line instead of paying two engine
// events per poll, and wakes it when the line is lost. The schedule must not
// move: for a writer landing at every offset across two poll periods (which
// covers the invalidation arriving exactly on a poll instant), the poller
// resumes in the same cycle with the same value, every message goes out in
// the same cycle and order, every core's CoreStats match, and the machine
// ends at the same time with the same metrics — all but the engine event
// count, which is the point of parking.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "benchsupport/metrics_json.hpp"
#include "sim/machine.hpp"

namespace sbq::sim {
namespace {

constexpr Time kGap = 12;  // CC-Queue's waiter gap
constexpr Time kPeriod = 1 + kGap;  // hit_latency + gap at the defaults

struct PollResult {
  Time resume = 0;
  Value value = 0;
};

Task<void> plain_poll(Core& c, Addr a, Value want, Time gap, PollResult* out) {
  Value v = 0;
  for (;;) {
    v = co_await c.load(a);
    if (v >= want) break;
    co_await c.think(gap);
  }
  out->resume = c.now();
  out->value = v;
}

Task<void> parked_poll(Core& c, Addr a, Value want, Time gap,
                       PollResult* out) {
  out->value = co_await c.poll_until(a, want, gap);
  out->resume = c.now();
}

// How the poller's copy of the line is lost.
enum class Loss {
  kInv,          // poller holds S; the writer's GetM invalidates it
  kFwdGetM,      // poller holds M; the writer's GetM is forwarded to it
  kDowngrade,    // poller holds M; a reader's Fwd-GetS downgrades it to O
                 // (it stays parked), then the writer takes the line
  kDeferredInv,  // the poller's first GetS is served by a slow remote owner
                 // while the writer's Inv overtakes the data
};

// One interconnect send, as the send observer sees it.
struct Send {
  Time t;
  CoreId src, dst;
  MsgType type;
  Addr addr;
  Value value;
  bool operator==(const Send&) const = default;
};

void record_send(void* ctx, Time t, CoreId src, CoreId dst,
                 const Message& msg) {
  static_cast<std::vector<Send>*>(ctx)->push_back(
      {t, src, dst, msg.type, msg.addr, msg.value});
}

struct Outcome {
  PollResult poll;
  std::vector<Send> sends;  // phase 2 only
  std::vector<CoreStats> stats;
  Time final_time = 0;
  std::string metrics;  // Machine::metrics() with `events` zeroed
  std::uint64_t events = 0;
};

MachineConfig case_config(Loss loss, bool jitter) {
  MachineConfig cfg;
  cfg.cores = 4;
  if (loss == Loss::kDeferredInv) {
    cfg.sockets = 2;
    cfg.inter_latency = 300;  // slow cross-socket data path
  }
  if (jitter) {
    cfg.fault_plan.enabled = true;
    cfg.fault_plan.seed = 7;
    cfg.fault_plan.message_jitter_rate = 0.5;
    cfg.fault_plan.max_message_jitter = 24;
  }
  return cfg;
}

// The poller (core 0) waits for x >= 2. The writer (core 1) stores 1 after
// `offset` cycles, which wakes the poller only for it to re-read, fail the
// test and park again, then stores 2 a little later.
Outcome run_case(Loss loss, bool jitter, bool park, Time offset,
                 Time gap = kGap) {
  Machine m(case_config(loss, jitter));
  const Addr x = m.alloc();
  m.spawn([](Machine& m, Addr x, Loss loss) -> Task<void> {
    switch (loss) {
      case Loss::kInv: co_await m.core(0).load(x); break;
      case Loss::kFwdGetM:
      case Loss::kDowngrade: co_await m.core(0).store(x, 0); break;
      case Loss::kDeferredInv: co_await m.core(2).store(x, 0); break;
    }
  }(m, x, loss));
  m.run();

  Outcome out;
  m.interconnect().set_send_observer(record_send, &out.sends);
  Core& poller = m.core(0);
  m.spawn(park ? parked_poll(poller, x, 2, gap, &out.poll)
               : plain_poll(poller, x, 2, gap, &out.poll));
  m.spawn([](Machine& m, Addr x, Time offset) -> Task<void> {
    co_await m.core(1).think(offset + 1);
    co_await m.core(1).store(x, 1);
    co_await m.core(1).think(70 + offset / 2);
    co_await m.core(1).store(x, 2);
  }(m, x, offset));
  if (loss == Loss::kDowngrade) {
    m.spawn([](Machine& m, Addr x, Time offset) -> Task<void> {
      co_await m.core(3).think(offset / 3 + 1);
      co_await m.core(3).load(x);
    }(m, x, offset));
  }
  out.final_time = m.run();
  for (int c = 0; c < m.core_count(); ++c) {
    out.stats.push_back(m.core(c).stats());
  }
  MetricsSnapshot snap = m.metrics();
  out.events = snap.events;
  snap.events = 0;
  out.metrics = metrics_to_json(snap).dump(-1);
  return out;
}

void expect_same(const Outcome& plain, const Outcome& parked) {
  EXPECT_EQ(plain.poll.resume, parked.poll.resume);
  EXPECT_EQ(plain.poll.value, parked.poll.value);
  EXPECT_TRUE(plain.sends == parked.sends);
  ASSERT_EQ(plain.stats.size(), parked.stats.size());
  for (std::size_t c = 0; c < plain.stats.size(); ++c) {
    EXPECT_TRUE(plain.stats[c] == parked.stats[c]) << "core " << c;
  }
  EXPECT_EQ(plain.final_time, parked.final_time);
  EXPECT_EQ(plain.metrics, parked.metrics);
}

void sweep(Loss loss, bool jitter) {
  std::uint64_t plain_events = 0;
  std::uint64_t parked_events = 0;
  for (Time offset = 0; offset <= 2 * kPeriod; ++offset) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    const Outcome plain = run_case(loss, jitter, /*park=*/false, offset);
    const Outcome parked = run_case(loss, jitter, /*park=*/true, offset);
    expect_same(plain, parked);
    EXPECT_EQ(parked.poll.value, 2u);
    EXPECT_LE(parked.events, plain.events);
    plain_events += plain.events;
    parked_events += parked.events;
  }
  // The mechanism itself: parked polls cost no events.
  EXPECT_LT(parked_events, plain_events);
}

TEST(SimPoll, MatchesPlainLoopOnInv) { sweep(Loss::kInv, false); }
TEST(SimPoll, MatchesPlainLoopOnInvWithJitter) { sweep(Loss::kInv, true); }
TEST(SimPoll, MatchesPlainLoopOnFwdGetM) { sweep(Loss::kFwdGetM, false); }
TEST(SimPoll, MatchesPlainLoopOnFwdGetMWithJitter) {
  sweep(Loss::kFwdGetM, true);
}
TEST(SimPoll, MatchesPlainLoopAcrossDowngrade) {
  sweep(Loss::kDowngrade, false);
}
TEST(SimPoll, MatchesPlainLoopAcrossDowngradeWithJitter) {
  sweep(Loss::kDowngrade, true);
}
TEST(SimPoll, MatchesPlainLoopOnDeferredInv) {
  sweep(Loss::kDeferredInv, false);
}
TEST(SimPoll, MatchesPlainLoopOnDeferredInvWithJitter) {
  sweep(Loss::kDeferredInv, true);
}

TEST(SimPoll, GapAtOrAboveMessageLatencyRunsThePlainLoop) {
  // With a gap of at least the shortest message latency an invalidation
  // could tie with a poll scheduled after it, so the core never parks: the
  // event counts match too.
  const Time gap = MachineConfig{}.intra_latency;
  for (Time offset = 0; offset <= 2 * (1 + gap); offset += 7) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    const Outcome plain = run_case(Loss::kInv, false, false, offset, gap);
    const Outcome parked = run_case(Loss::kInv, false, true, offset, gap);
    expect_same(plain, parked);
    EXPECT_EQ(plain.events, parked.events);
  }
}

TEST(SimPoll, DowngradeLeavesThePollerParked) {
  MachineConfig cfg;
  cfg.cores = 3;
  Machine m(cfg);
  const Addr x = m.alloc();
  m.spawn([](Core& c, Addr x) -> Task<void> { co_await c.store(x, 0); }(
      m.core(0), x));
  m.run();
  PollResult r;
  m.spawn(parked_poll(m.core(0), x, 1, kGap, &r));
  m.spawn([](Core& c, Addr x) -> Task<void> { co_await c.load(x); }(
      m.core(1), x));
  EXPECT_TRUE(m.run_until(1000));  // drained: nothing left but the park
  EXPECT_TRUE(m.core(0).poll_parked());
  EXPECT_EQ(m.core(0).line_state(x), Core::LineState::kOwned);
  EXPECT_FALSE(m.core(0).quiescent());
  m.spawn([](Core& c, Addr x) -> Task<void> { co_await c.store(x, 5); }(
      m.core(2), x));
  m.run();
  EXPECT_FALSE(m.core(0).poll_parked());
  EXPECT_TRUE(m.core(0).quiescent());
  EXPECT_EQ(r.value, 5u);
}

TEST(SimPoll, UnwrittenLineTripsTheQuiescenceWatchdog) {
  // A poll on a line nobody writes parks forever. With no event left to
  // run, Machine::run's watchdog reports the deadlock instead of spinning
  // until a time limit, and the dump names the parked core and its line.
  MachineConfig cfg;
  cfg.cores = 2;
  Machine m(cfg);
  const Addr x = m.alloc();
  PollResult r;
  m.spawn(parked_poll(m.core(1), x, 1, kGap, &r));
  testing::internal::CaptureStderr();
  EXPECT_THROW(m.run(), std::runtime_error);
  const std::string dump = testing::internal::GetCapturedStderr();
  EXPECT_NE(dump.find("core 1 parked in poll_until on addr " +
                      std::to_string(x)),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("next poll at t="), std::string::npos) << dump;
}

TEST(SimPoll, SteadyParksAllocateNothing) {
  // Many park/wake rounds on a warm machine: no event-slab growth after
  // the first rounds.
  MachineConfig cfg;
  cfg.cores = 2;
  Machine m(cfg);
  const Addr x = m.alloc();
  const auto rounds = [&](Value from, Value to) {
    m.spawn([](Core& c, Addr x, Value from, Value to) -> Task<void> {
      for (Value want = from; want < to; ++want) {
        co_await c.poll_until(x, want, kGap);
      }
    }(m.core(0), x, from, to));
    m.spawn([](Core& c, Addr x, Value from, Value to) -> Task<void> {
      for (Value v = from; v < to; ++v) {
        co_await c.think(100 + v % 13);
        co_await c.store(x, v);
      }
    }(m.core(1), x, from, to));
    m.run();
  };
  rounds(1, 50);  // warm-up
  const Engine::AllocStats warm = m.engine().alloc_stats();
  const std::uint64_t loads = m.core(0).stats().loads;
  rounds(50, 500);
  const Engine::AllocStats& steady = m.engine().alloc_stats();
  EXPECT_EQ(steady.slab_refills, warm.slab_refills);
  EXPECT_GT(steady.scheduled, warm.scheduled);
  // Skipped hits are still counted as loads.
  EXPECT_GT(m.core(0).stats().loads - loads, 450u * 5);
}

}  // namespace
}  // namespace sbq::sim
