// Tests for the discrete-event engine and the coroutine task plumbing.
// The events are typed; test code runs from them through a probe handler
// (engine_probe.hpp).
#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "engine_probe.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace sbq::sim {
namespace {

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  ActionProbe p(e);
  std::vector<int> order;
  p.at(30, [&] { order.push_back(3); });
  p.at(10, [&] { order.push_back(1); });
  p.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, EqualTimestampsAreFifo) {
  Engine e;
  ActionProbe p(e);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    p.at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedScheduling) {
  Engine e;
  ActionProbe p(e);
  std::vector<Time> times;
  p.at(10, [&] {
    times.push_back(e.now());
    p.at(5, [&] { times.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine e;
  ActionProbe p(e);
  int ran = 0;
  p.at(10, [&] { ++ran; });
  p.at(100, [&] { ++ran; });
  EXPECT_FALSE(e.run_until(50));
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(e.run_until(1000));
  EXPECT_EQ(ran, 2);
}

TEST(Engine, ZeroDelayRunsAtCurrentTime) {
  Engine e;
  ActionProbe p(e);
  Time seen = 999;
  p.at(7, [&] {
    p.at(0, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 7u);
}

// Destroying an engine with events still pending drops them without
// running them: every kind, near, far (the overflow heap) and in between.
// Event records hold plain data, so there is nothing to destroy one by one
// (ASan builds check that nothing leaks).
TEST(Engine, DestructorDropsPendingEventsUnrun) {
  constexpr int kRounds = 40;
  std::vector<int> ran_by_kind(kEventKindCount, 0);
  {
    Engine e;
    e.set_handler(
        [](void* ctx, const Event& ev) {
          ++(*static_cast<std::vector<int>*>(ctx))[static_cast<std::size_t>(
              ev.kind)];
        },
        &ran_by_kind);
    for (int i = 0; i < kRounds; ++i) {
      // The first ten rounds run before the engine is destroyed.
      const Time t = static_cast<Time>(i);
      const Time delay = i < 10 ? 1 : i % 3 == 0 ? 9000 + t : 100 + t;
      e.schedule_step(delay, 0, {.step = CoreStep::kTxRetry});
      e.schedule_typed(delay, EventKind::kDeliver, 0, Message{});
      e.schedule_resume(delay + 20000, std::coroutine_handle<>{});
      e.schedule_typed(delay + 20000, EventKind::kAccessDone, 1);
    }
    EXPECT_FALSE(e.run_until(1));
    EXPECT_EQ(e.events_processed(), 20u);
  }
  EXPECT_EQ(ran_by_kind, (std::vector<int>{10, 0, 0, 0, 10}));
}

// --- coroutine Task tests ---

Task<int> answer() { co_return 42; }

Task<int> add(int a, int b) {
  const int x = co_await answer();
  co_return a + b + x - 42;
}

Task<void> driver(Engine& e, int* out) {
  struct Sleep {
    Engine& e;
    Time d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { e.schedule_resume(d, h); }
    void await_resume() const noexcept {}
  };
  co_await Sleep{e, 10};
  *out = co_await add(20, 22);
  co_await Sleep{e, 5};
  *out += 1;
}

// The probe handler a machine's on_event is for kResume.
void resume_frame(void*, const Event& ev) {
  ASSERT_EQ(ev.kind, EventKind::kResume);
  std::coroutine_handle<>::from_address(ev.frame).resume();
}

TEST(Coro, NestedTasksAndAwaitables) {
  Engine e;
  e.set_handler(&resume_frame, nullptr);
  int out = 0;
  Task<void> t = driver(e, &out);
  auto h = t.release();
  std::size_t finished = 0;
  h.promise().finished = &finished;
  e.schedule_resume(0, h);
  e.run();
  EXPECT_EQ(finished, 1u);
  EXPECT_EQ(out, 43);
  EXPECT_EQ(e.now(), 15u);
  h.destroy();
}

TEST(Coro, TaskDestroyWithoutRunningIsSafe) {
  // A never-started lazy task must be destroyable without leaks/crashes.
  { Task<int> t = answer(); }
  SUCCEED();
}

}  // namespace
}  // namespace sbq::sim
