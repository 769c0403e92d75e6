// Tests for the discrete-event engine and the coroutine task plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace sbq::sim {
namespace {

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, EqualTimestampsAreFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedScheduling) {
  Engine e;
  std::vector<Time> times;
  e.schedule(10, [&] {
    times.push_back(e.now());
    e.schedule(5, [&] { times.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.schedule(100, [&] { ++ran; });
  EXPECT_FALSE(e.run_until(50));
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(e.run_until(1000));
  EXPECT_EQ(ran, 2);
}

TEST(Engine, ZeroDelayRunsAtCurrentTime) {
  Engine e;
  Time seen = 999;
  e.schedule(7, [&] {
    e.schedule(0, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 7u);
}

// Destroying an engine with events still pending destroys each pending
// closure's capture once, without running it, and skips the typed events
// (trivial payloads). Each capture below counts its own destruction; a
// moved-from capture does not count.
TEST(Engine, DestructorDestroysPendingClosuresOnce) {
  struct Tracked {
    std::vector<int>* destroyed;
    int id;
    Tracked(std::vector<int>* d, int i) : destroyed(d), id(i) {}
    Tracked(Tracked&& o) noexcept : destroyed(o.destroyed), id(o.id) {
      o.id = -1;
    }
    Tracked(const Tracked&) = delete;
    ~Tracked() {
      if (id >= 0) ++(*destroyed)[static_cast<std::size_t>(id)];
    }
  };
  constexpr int kClosures = 40;
  std::vector<int> destroyed(kClosures, 0);
  int ran = 0;
  int typed_ran = 0;
  {
    Engine e;
    e.set_handler([](void* ctx, const Event&) { ++*static_cast<int*>(ctx); },
                  &typed_ran);
    for (int i = 0; i < kClosures; ++i) {
      // Near, far (the overflow heap) and in-between delays; the first
      // ten run before the engine is destroyed.
      const Time t = static_cast<Time>(i);
      const Time delay = i < 10 ? 1 : i % 3 == 0 ? 9000 + t : 100 + t;
      e.schedule(delay, [tracked = Tracked(&destroyed, i), &ran] { ++ran; });
      e.schedule_typed(delay, EventKind::kDeliver, 0, Message{});
      e.schedule_typed(delay + 20000, EventKind::kAccessDone, 1);
    }
    EXPECT_FALSE(e.run_until(1));
    EXPECT_EQ(ran, 10);
    EXPECT_EQ(typed_ran, 10);
    for (std::size_t i = 0; i < destroyed.size(); ++i) {
      EXPECT_EQ(destroyed[i], i < 10 ? 1 : 0) << i;
    }
  }
  EXPECT_EQ(ran, 10);  // pending closures were destroyed, not run
  EXPECT_EQ(typed_ran, 10);
  for (std::size_t i = 0; i < destroyed.size(); ++i) {
    EXPECT_EQ(destroyed[i], 1) << i;
  }
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
    void await_suspend(std::coroutine_handle<> h) {
      e.schedule(d, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  co_await Sleep{e, 10};
  *out = co_await add(20, 22);
  co_await Sleep{e, 5};
  *out += 1;
}

TEST(Coro, NestedTasksAndAwaitables) {
  Engine e;
  int out = 0;
  Task<void> t = driver(e, &out);
  auto h = t.release();
  std::size_t finished = 0;
  h.promise().finished = &finished;
  e.schedule(0, [h] { h.resume(); });
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
