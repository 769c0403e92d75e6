// Machine: assembles engine + interconnect + directory + cores, provides a
// word allocator for simulated data structures, and runs simulated-thread
// coroutines to completion. One Engine drives every component, one
// directory homes every line, and one line table holds every line's
// directory fields and cached copies (line_table.hpp).
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/coro.hpp"
#include "sim/core.hpp"
#include "sim/directory.hpp"
#include "sim/engine.hpp"
#include "sim/interconnect.hpp"
#include "sim/line_table.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace sbq::sim {

// Checkpoint of a quiescent machine (see Machine::snapshot): every piece of
// schedule-visible state — clock/seq stream, interconnect link horizons,
// the line table (directory lines and cached copies), counters, trace ring,
// allocator cursor.
// A snapshot is a plain value: copyable, and safe to fork from concurrently
// (fork only reads it), so one warmed prefill can seed every repeat of a
// sweep cell across worker threads.
struct MachineSnapshot {
  MachineConfig cfg;
  Engine::Checkpoint engine;
  Interconnect::State net;
  LineTable lines;
  Directory::State directory;
  std::vector<Core::State> cores;
  Trace trace;
  Stats stats{0};
  Addr next_addr = 1;
  std::size_t spawned = 0;
  std::size_t finished = 0;
  bool started = false;
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg = {});
  // Fork: build a machine that continues exactly where `snap` left off —
  // same clock, same seq stream, same cache/directory/link state — so a
  // forked run replays byte-identically to the machine the snapshot was
  // taken from continuing in place.
  explicit Machine(const MachineSnapshot& snap);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Capture the machine's schedule-visible state. Requires quiescence: the
  // event queue drained (run() returned) and every core free of in-flight
  // protocol or transaction state — i.e. call it between run() phases, not
  // mid-simulation. Simulated memory contents (directory lines + caches)
  // carry over, so a queue prefilled before snapshot() is prefilled in
  // every fork. Throws std::runtime_error (always compiled, not an assert)
  // when called on a non-quiescent machine.
  MachineSnapshot snapshot() const;
  static std::unique_ptr<Machine> fork(const MachineSnapshot& snap) {
    return std::make_unique<Machine>(snap);
  }

  Engine& engine() noexcept { return engine_; }
  // Machine-wide event total. Allocation-free (unlike metrics()), so the
  // microbench gates can sample it inside a counted phase.
  std::uint64_t events_processed() const noexcept {
    return engine_.events_processed();
  }
  Time now() const noexcept { return engine_.now(); }
  Trace& trace() noexcept { return trace_; }
  // The metrics registry.
  Stats& stats() noexcept { return stats_; }
  const Stats& stats() const noexcept { return stats_; }
  // Flattened counter snapshot plus engine/interconnect totals — what
  // sweep cells put into BENCH_*.json. Callable at any point; counters are
  // cumulative.
  MetricsSnapshot metrics() const;
  Directory& directory() noexcept { return dir_; }
  void poke(Addr a, Value v) { dir_.poke(a, v); }
  Value peek(Addr a) noexcept { return dir_.peek(a); }
  Interconnect& interconnect() noexcept { return *net_; }
  Core& core(int i) { return *cores_.at(static_cast<std::size_t>(i)); }
  int core_count() const noexcept { return cfg_.cores; }
  const MachineConfig& config() const noexcept { return cfg_; }

  // Allocate `words` consecutive simulated words (each its own line) from
  // one bump cursor; returns the address of the first. Word 0 is reserved
  // as NULL. The one engine runs a deterministic schedule, so mid-run
  // allocations get the same addresses on every run and every fork.
  Addr alloc(std::uint64_t words = 1);

  // Register a simulated thread; it starts when run() is called.
  void spawn(Task<void> task);

  // Pre-size the root-task table (spawn() otherwise grows it, which the
  // sim_microbench allocation gate would count against the steady state).
  void reserve_tasks(std::size_t n) { roots_.reserve(n); }

  // Pre-size the line table for `n` distinct lines. Bounded-address-range
  // runs (the sim_microbench zero-alloc gate) call this once at setup so
  // no line-table rehash lands mid-run.
  void reserve_lines(std::size_t n) { lines_.reserve(n); }

  // Run the event loop until every spawned task finishes and the queue
  // drains. Returns the final simulated time. If the queue drains with
  // unfinished tasks (deadlock in the simulated program), the quiescence
  // watchdog dumps the debug ring + trace to stderr and throws
  // std::runtime_error instead of hanging or silently continuing — always
  // compiled, so it fires in the default (NDEBUG) build too.
  Time run();

  // Bounded run for tests; returns false on timeout.
  bool run_until(Time limit);

  // Cumulative across the machine's lifetime (run() recycles the frames of
  // finished root tasks, so these do not track the live roots_ table).
  std::size_t spawned() const noexcept { return spawned_; }
  std::size_t finished() const noexcept { return finished_; }

  // Always-on bounded ring of the last interconnect messages, for
  // post-mortem dumps (watchdog / invariant checker). Not part of
  // snapshots: it is debug state, not schedule state.
  const DebugRing& debug_ring() const noexcept { return debug_ring_; }

  // The engine's handler for every event, installed at construction
  // (`ctx` is the machine). A kDeliver goes to core `target`, or to the
  // directory when `target` is the last node id, and is followed by the
  // invariant checker when cfg_.check_invariants; a kResume resumes its
  // coroutine and a kCoreStep runs on core `target`. Public so a test
  // probe installed on the engine can pass through the events it does not
  // hold.
  static void on_event(void* ctx, const Event& ev);

 private:
  // First-run setup: resume the spawned roots.
  void start();
  // Verify SWMR + directory/cache consistency; on violation dump the debug
  // ring to stderr and throw std::logic_error. Run after every delivered
  // message when cfg_.check_invariants.
  void check_invariants_now();
  // Dump the debug ring and (when enabled) the trace tail to stderr.
  void dump_debug_state(const char* why);

  MachineConfig cfg_;
  Engine engine_;
  Trace trace_;
  DebugRing debug_ring_;
  Stats stats_;
  std::unique_ptr<Interconnect> net_;
  LineTable lines_;
  Directory dir_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::coroutine_handle<Task<void>::promise_type>> roots_;
  std::size_t spawned_ = 0;
  std::size_t finished_ = 0;
  Addr next_addr_ = 1;  // 0 is NULL
  bool started_ = false;
};

// Barrier for simulated threads: all parties must arrive before any proceeds.
class SimBarrier {
 public:
  SimBarrier(Engine& engine, int parties)
      : engine_(engine), parties_(parties) {}

  auto arrive_and_wait() {
    struct Awaiter {
      SimBarrier* barrier;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        SimBarrier& b = *barrier;
        if (++b.arrived_ == b.parties_) {
          b.arrived_ = 0;
          auto waiting = std::move(b.waiting_);
          b.waiting_.clear();
          for (auto w : waiting) b.engine_.schedule_resume(0, w);
          return false;  // last arrival continues immediately
        }
        b.waiting_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine& engine_;
  int parties_;
  int arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiting_;
};

}  // namespace sbq::sim
