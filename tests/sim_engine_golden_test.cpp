// Golden-sequence test for the timing-wheel event engine.
//
// The engine's contract is a strict (time, seq) FIFO total order: events
// run in timestamp order, and equal timestamps run in scheduling order.
// The timing wheel implements this with single-time slots, an occupancy
// bitmap, and a seq-merged overflow heap — this test drives every one of
// those paths (equal-time bursts, self-rescheduling cascades that wrap the
// wheel many times, far-future overflow events that merge by seq) and
// checks the executed order against an independent reference model: a
// stable sort of the scheduled (time, seq) pairs.
//
// Every event is typed and runs through the engine's handler; the
// harness logs each event's id, a core step's from its action and the
// other kinds' from their payload. One test interleaves core steps with
// the other kinds at equal timestamps and through the overflow heap.
//
// Also pins down the run_until boundary semantics documented in
// engine.hpp: the limit is inclusive, and a false return leaves now() at
// the last-run event's time (no clock fast-forward).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "engine_probe.hpp"
#include "sim/engine.hpp"

namespace sbq::sim {
namespace {

// Schedules into the engine and into a reference list at the same time;
// expected order = stable sort of (absolute time, schedule order).
class GoldenHarness {
 public:
  explicit GoldenHarness(Engine& e)
      : e_(e), probe_(e, &GoldenHarness::on_event, this) {}

  // A core step that logs `id`.
  void sched(Time delay, int id) {
    expected_.push_back(Ref{e_.now() + delay, seq_++, id});
    probe_.at(delay, [this, id] { log_.push_back(id); });
  }

  // An event of one of the other kinds that logs `id`: a delivery carrying
  // it in its message, a directory step carrying it as its requester, or a
  // payload-less access completion carrying it as the target.
  void sched_typed(Time delay, int id) {
    expected_.push_back(Ref{e_.now() + delay, seq_++, id});
    switch (id % 3) {
      case 0:
        e_.schedule_typed(delay, EventKind::kDeliver, 0,
                          Message{.addr = static_cast<Addr>(id)});
        break;
      case 1:
        e_.schedule_typed(delay, EventKind::kDirProcess, 0,
                          Message{.requester = id});
        break;
      default:
        e_.schedule_typed(delay, EventKind::kAccessDone, id);
        break;
    }
  }

  // Schedule a core step that logs `id`, then runs `fn` (which may
  // schedule more).
  void sched_action(Time delay, int id, std::function<void()> fn) {
    expected_.push_back(Ref{e_.now() + delay, seq_++, id});
    probe_.at(delay, [this, id, fn = std::move(fn)] {
      log_.push_back(id);
      fn();
    });
  }

  std::vector<int> expected_order() const {
    std::vector<Ref> refs = expected_;
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref& a, const Ref& b) { return a.time < b.time; });
    std::vector<int> ids;
    ids.reserve(refs.size());
    for (const Ref& r : refs) ids.push_back(r.id);
    return ids;
  }

  const std::vector<int>& log() const { return log_; }

 private:
  // The events that are not core steps.
  static void on_event(void* ctx, const Event& ev) {
    auto* h = static_cast<GoldenHarness*>(ctx);
    switch (ev.kind) {
      case EventKind::kDeliver:
        h->log_.push_back(static_cast<int>(ev.msg.addr));
        return;
      case EventKind::kDirProcess:
        h->log_.push_back(ev.msg.requester);
        return;
      default:
        h->log_.push_back(ev.target);
        return;
    }
  }

  struct Ref {
    Time time;
    std::uint64_t seq;
    int id;
  };
  Engine& e_;
  ActionProbe probe_;
  std::vector<Ref> expected_;
  std::vector<int> log_;
  std::uint64_t seq_ = 0;
};

TEST(EngineGolden, EqualTimeBurstsInterleavedWithDistinctTimes) {
  Engine e;
  GoldenHarness h(e);
  int id = 0;
  // Bursts of equal timestamps at scattered times, scheduled out of order.
  for (int round = 0; round < 8; ++round) {
    h.sched(37, id++);
    for (int i = 0; i < 20; ++i) h.sched(5, id++);
    h.sched(1, id++);
    for (int i = 0; i < 20; ++i) h.sched(5, id++);  // same slot, later seqs
    h.sched(8191, id++);  // end of the wheel window
  }
  e.run();
  EXPECT_EQ(h.log(), h.expected_order());
  EXPECT_EQ(e.events_processed(), static_cast<std::uint64_t>(id));
}

TEST(EngineGolden, SelfReschedulingCascadeWrapsTheWheel) {
  Engine e;
  GoldenHarness h(e);
  // Lanes reschedule themselves with a pseudorandom small delay until a
  // budget runs out — the engine_microbench workload shape. Total simulated
  // time far exceeds kWheelSlots (8192), so the window wraps repeatedly.
  struct Lane {
    GoldenHarness& h;
    int remaining;
    std::uint64_t state;
    int id_base;
    int fired = 0;
    void fire() {
      if (remaining-- == 0) return;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      h.sched_action(1 + (state & 7), id_base + fired++, [this] { fire(); });
    }
  };
  std::vector<Lane> lanes;
  for (int w = 0; w < 4; ++w) {
    lanes.push_back(Lane{h, 4500, static_cast<std::uint64_t>(w + 1), w * 100000});
  }
  for (Lane& lane : lanes) lane.fire();
  e.run();
  EXPECT_GT(e.now(), 8192u * 2);  // the wheel really wrapped
  EXPECT_EQ(h.log(), h.expected_order());
}

TEST(EngineGolden, OverflowEventsMergeBySeq) {
  Engine e;
  GoldenHarness h(e);
  // Far-future events (into the overflow heap) scheduled BEFORE near
  // events that later land in the same slot: when the overflow drains, the
  // earlier seq must still run first.
  h.sched(8200, 0);   // overflow (seq 0)
  h.sched(20000, 1);  // overflow, much later (seq 1)
  h.sched_action(8, 2, [&h] {
    // Runs at t=8: 8192 ahead lands at t=8200 — same time as id 0, but a
    // later seq, so it must run after it.
    h.sched(8192, 3);
    // And a zero-delay chain at the same instant.
    h.sched(0, 4);
  });
  h.sched(5, 5);
  // A second overflow batch at one shared far time, interleaved with a
  // near event, to exercise the drain's in-slot seq insert.
  h.sched(30000, 6);
  h.sched(30000, 7);
  h.sched(3, 8);
  e.run();
  EXPECT_EQ(h.log(), h.expected_order());
  EXPECT_GE(e.alloc_stats().overflow_events, 4u);
}

TEST(EngineGolden, MixedStressAllPaths) {
  Engine e;
  GoldenHarness h(e);
  // One driver lane that, every firing, emits a spray of same-time and
  // far-future events — equal-time FIFO, wheel wrap, and overflow merge in
  // one schedule.
  struct Driver {
    GoldenHarness& h;
    int remaining;
    std::uint64_t state;
    int next_id = 0;
    void fire() {
      if (remaining-- == 0) return;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      for (int i = 0; i < 3; ++i) h.sched(state & 15, next_id++);
      if ((state & 3) == 0) h.sched(8192 + (state & 4095), next_id++);
      h.sched_action(1 + (state & 7), next_id++, [this] { fire(); });
    }
  };
  Driver d{h, 2000, 42};
  d.fire();
  e.run();
  EXPECT_EQ(h.log(), h.expected_order());
}

TEST(EngineGolden, EveryEventKindSharesOneOrder) {
  Engine e;
  GoldenHarness h(e);
  // A driver lane whose every firing emits same-time bursts that alternate
  // core steps and the other kinds, near events of both sorts, and
  // far-future events of both sorts that go through the overflow heap and
  // merge by seq into slots that already hold the other sort.
  struct Driver {
    GoldenHarness& h;
    int remaining;
    std::uint64_t state;
    int next_id = 0;
    void fire() {
      if (remaining-- == 0) return;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const Time burst = state & 15;
      for (int i = 0; i < 4; ++i) {
        if ((i + (state >> 8)) % 2 == 0) {
          h.sched_typed(burst, next_id++);
        } else {
          h.sched(burst, next_id++);
        }
      }
      h.sched_typed(0, next_id++);
      if ((state & 3) == 0) {
        const Time far = 8192 + ((state >> 16) & 63);
        h.sched_typed(far, next_id++);
        h.sched(far, next_id++);
        h.sched_typed(far, next_id++);
      }
      h.sched_action(1 + (state & 7), next_id++, [this] { fire(); });
    }
  };
  Driver d{h, 3000, 7};
  d.fire();
  e.run();
  EXPECT_GT(e.now(), 8192u * 2);  // the wheel wrapped
  EXPECT_GE(e.alloc_stats().overflow_events, 500u);
  EXPECT_EQ(h.log(), h.expected_order());
  EXPECT_EQ(e.events_processed(), h.expected_order().size());
}

TEST(EngineGolden, RunUntilLimitIsInclusive) {
  Engine e;
  ActionProbe p(e);
  int ran = 0;
  p.at(10, [&] { ++ran; });
  p.at(50, [&] { ++ran; });
  p.at(60, [&] { ++ran; });
  EXPECT_FALSE(e.run_until(50));
  EXPECT_EQ(ran, 2);  // the event AT the limit ran
  EXPECT_TRUE(e.run_until(60));
  EXPECT_EQ(ran, 3);
}

TEST(EngineGolden, RunUntilRunsZeroDelayChainsAtTheLimit) {
  Engine e;
  ActionProbe p(e);
  std::vector<int> log;
  p.at(50, [&] {
    log.push_back(0);
    p.at(0, [&] {
      log.push_back(1);
      p.at(0, [&] { log.push_back(2); });
    });
  });
  p.at(51, [&] { log.push_back(3); });
  EXPECT_FALSE(e.run_until(50));
  // The whole time-50 chain ran, including events scheduled at the limit
  // by events that themselves ran at the limit.
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(e.run_until(100));
  EXPECT_EQ(log.back(), 3);
}

TEST(EngineGolden, RunUntilDoesNotFastForwardTheClock) {
  Engine e;
  ActionProbe p(e);
  p.at(10, [] {});
  p.at(100, [] {});
  EXPECT_FALSE(e.run_until(50));
  // now() stays at the last-run event's time, not the limit.
  EXPECT_EQ(e.now(), 10u);
  EXPECT_TRUE(e.run_until(100));
  EXPECT_EQ(e.now(), 100u);
}

TEST(EngineGolden, RunUntilOnFarFutureOverflowEvent) {
  Engine e;
  ActionProbe p(e);
  int ran = 0;
  p.at(100000, [&] { ++ran; });  // sits in the overflow heap
  EXPECT_FALSE(e.run_until(99999));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.now(), 0u);  // nothing ran; the clock did not move
  EXPECT_TRUE(e.run_until(100000));  // inclusive at the limit
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), 100000u);
}

TEST(EngineGolden, SteadyCascadeIsAllocationFree) {
  Engine e;
  // Each lane rides in its events' message, as in engine_microbench.
  struct Lane {
    Engine& e;
    int remaining;
    void fire() {
      if (remaining-- == 0) return;
      e.schedule_typed(
          3, EventKind::kDeliver, 0,
          Message{.value = reinterpret_cast<std::uintptr_t>(this)});
    }
  };
  e.set_handler(
      [](void*, const Event& ev) {
        reinterpret_cast<Lane*>(static_cast<std::uintptr_t>(ev.msg.value))
            ->fire();
      },
      nullptr);
  // Warm-up: run one cascade to fill the slab freelist.
  Lane warm{e, 2000};
  warm.fire();
  e.run();
  const auto before = e.alloc_stats();
  Lane steady{e, 2000};
  steady.fire();
  e.run();
  const auto after = e.alloc_stats();
  EXPECT_EQ(after.slab_refills, before.slab_refills);
}

}  // namespace
}  // namespace sbq::sim
