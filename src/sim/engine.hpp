// Discrete-event engine: a deterministic time-ordered event queue.
//
// Hot-path design: the pending set is a timing wheel — a power-of-two ring
// of slots covering the time window [now, now + kWheelSlots). Every modeled
// latency in the simulator is a small bounded constant (hit = 1 … inter-
// socket = 160 ≪ 8192), so scheduling is an O(1) append to the slot list
// and dispatch is an O(1) pop plus a short occupancy-bitmap scan to find
// the next nonempty slot. Events scheduled ≥ kWheelSlots cycles ahead go
// to a small overflow min-heap and are merged (by seq) into the wheel as
// the window reaches them, so arbitrary horizons still work.
//
// Two invariants make the wheel exactly equivalent to the previous binary
// heap on (time, seq):
//  1. Single-time slots: all pending times lie in [now, now + kWheelSlots)
//     (times never precede `now`, and direct inserts use delay < wheel
//     span), so two events in the same slot always share the same time.
//  2. Slots are FIFO by seq: direct schedules append in seq order, and
//     overflow drains insert at the (time, seq) position, so equal-time
//     events run in scheduling order — runs stay fully deterministic.
//
// Each pending event is one 64-byte Event record drawn from a per-engine
// slab + freelist, so steady-state scheduling performs zero heap
// allocations (records are recycled as events run). A record is typed by
// its `kind` and carries a target id plus a Message, a coroutine frame or
// a core step; every event runs through the one handler the owner
// installs (set_handler).
#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace sbq::sim {

// What a pending event runs. Every kind goes to the engine's handler
// (Machine::on_event in a machine), which dispatches on it.
enum class EventKind : std::uint8_t {
  kDeliver,     // a message arrives at node `target`
  kDirProcess,  // the directory processes `msg` after its occupancy wait
  kAccessDone,  // core `target`'s memory access completes
  kResume,      // the coroutine whose frame is `frame` resumes
  kCoreStep,    // core `target` runs `step`
};
inline constexpr int kEventKindCount = 5;

// The timed steps of a core's poll_until and TxCAS state machines, run by
// Core::run_step; each names the StepEvent fields it reads.
enum class CoreStep : std::uint8_t {
  kPollFinish,    // the final hit of a poll_until completes
  kPollStep,      // the plain loop's next poll starts
  kTxSelfAbort,   // the read saw another value: the TxCAS fails
  kTxDelayDone,   // the intra-transaction delay expires (token)
  kTxFault,       // a rate-injected abort lands (token, fault)
  kTxHitCommit,   // the write hits an owned line and commits (token)
  kTxCommitDone,  // the commit completes (addr, was_miss)
  kTxPostAbort,   // the post-abort delay expires: re-read the line
  kTxRetry,       // the retry after a write-phase abort starts
};
inline constexpr int kCoreStepCount = 9;

struct StepEvent {
  CoreStep step = CoreStep::kPollStep;
  FaultKind fault = FaultKind::kInterrupt;
  bool was_miss = false;
  Addr addr = 0;
  std::uint64_t token = 0;  // the TxCAS attempt a timer belongs to
};

// One pending event: 64 bytes, one cache line.
struct Event {
  Event() noexcept : msg{} {}

  Event* next = nullptr;  // slot-list link / freelist link
  Time time = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kDeliver;
  CoreId target = -1;
  union {
    Message msg;     // kDeliver, kDirProcess
    void* frame;     // kResume: std::coroutine_handle<>::address()
    StepEvent step;  // kCoreStep
  };
};
static_assert(sizeof(Message) == 32, "Message must fill the event payload");
static_assert(sizeof(StepEvent) <= sizeof(Message));
static_assert(sizeof(Event) == 64, "an event record is one cache line");

class Engine {
 public:
  Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const noexcept { return now_; }

  // Schedule an event for the installed handler `delay` cycles from now:
  // `kind` on `target`, carrying `msg` (kDeliver, kDirProcess) or nothing
  // (kAccessDone). Events with equal timestamps run in scheduling order
  // (FIFO), which makes runs fully deterministic.
  void schedule_typed(Time delay, EventKind kind, CoreId target,
                      const Message& msg) {
    Event* e = acquire_event(kind, target);
    e->msg = msg;
    enqueue(e, delay);
  }
  void schedule_typed(Time delay, EventKind kind, CoreId target) {
    enqueue(acquire_event(kind, target), delay);
  }
  // A kResume of coroutine `h`.
  void schedule_resume(Time delay, std::coroutine_handle<> h) {
    Event* e = acquire_event(EventKind::kResume, -1);
    e->frame = h.address();
    enqueue(e, delay);
  }
  // A kCoreStep: core `target` runs `step`.
  void schedule_step(Time delay, CoreId target, const StepEvent& step) {
    Event* e = acquire_event(EventKind::kCoreStep, target);
    e->step = step;
    enqueue(e, delay);
  }

  // The handler every event runs through. Install it before the first
  // event is scheduled; tests install probes here.
  using HandlerFn = void (*)(void* ctx, const Event& ev);
  void set_handler(HandlerFn fn, void* ctx) noexcept {
    handler_ = fn;
    handler_ctx_ = ctx;
  }

  // Run events until the queue drains. Returns the final time.
  Time run();
  // Run until the queue drains or `limit` is reached (safety valve for
  // tests; hitting the limit indicates livelock in the modeled protocol).
  // Returns true if the queue drained.
  //
  // Boundary semantics: the limit is INCLUSIVE — every event whose time is
  // <= limit runs (including events scheduled at exactly Time == limit by
  // events that themselves ran at `limit`). When the next pending event
  // lies strictly after `limit`, run_until returns false and leaves now()
  // at the time of the last event that ran; it does NOT fast-forward the
  // clock to `limit`.
  bool run_until(Time limit);

  std::uint64_t events_processed() const noexcept { return processed_; }
  bool idle() const noexcept {
    return wheel_count_ == 0 && overflow_.empty();
  }

  // Allocation accounting for the engine microbench: in steady state
  // (freelist warm, overflow untouched) scheduling allocates nothing, so
  // `slab_refills` stays flat while `scheduled` grows.
  struct AllocStats {
    std::uint64_t scheduled = 0;        // total events scheduled
    std::uint64_t slab_refills = 0;     // slab growths (kSlabNodes records each)
    std::uint64_t overflow_events = 0;  // events beyond the wheel window

    template <class V>
    void fields(V& v) {
      v("scheduled", scheduled);
      v("slab_refills", slab_refills);
      v("overflow_events", overflow_events);
    }
  };
  const AllocStats& alloc_stats() const noexcept { return alloc_; }

  // Grow the record slab until at least `n` event records exist (free or
  // in use).
  // Slab warmth is wall-clock state, not schedule state (it is excluded
  // from Checkpoint), so prewarming is always schedule-invisible. The
  // allocation gates call this on a machine forked from a deserialized
  // snapshot to keep the measured phase off the heap — the in-memory fork
  // path inherits a warm process, the decoded one starts cold.
  void prewarm_nodes(std::size_t n);
  // Total event records backed by the slab (free + live).
  std::size_t node_capacity() const noexcept {
    return slabs_.size() * kSlabNodes;
  }

  // Checkpoint of the schedule-visible clock state, valid only at idle()
  // (no pending events — nothing in the wheel or overflow heap to capture).
  // Restoring onto an idle engine resumes the (time, seq) stream exactly
  // where the checkpointed engine left it: slot indexing is absolute-time
  // based, so now_ alone re-anchors the wheel window. The record slab and
  // freelist are deliberately NOT part of the checkpoint — warmth is a
  // wall-clock property, not a schedule-visible one (a forked machine
  // re-warms its slab on first use; see Machine::fork).
  struct Checkpoint {
    Time now = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t processed = 0;
    AllocStats alloc;

    template <class V>
    void fields(V& v) {
      v("now", now);
      v("next_seq", next_seq);
      v("processed", processed);
      v("alloc", alloc);
    }
  };
  Checkpoint save_checkpoint() const;   // pre: idle()
  void restore_checkpoint(const Checkpoint& c);  // pre: idle()

 private:
  static constexpr std::size_t kSlabNodes = 256;

  // Wheel geometry: 8192 slots × 16-byte Slot = 128 KiB, heap-allocated
  // once at engine construction. Power of two so slot lookup is a mask.
  static constexpr std::size_t kWheelSlots = 8192;
  static constexpr std::size_t kWheelMask = kWheelSlots - 1;
  static constexpr std::size_t kOccWords = kWheelSlots / 64;  // 128

  struct Slot {
    Event* head = nullptr;
    Event* tail = nullptr;
  };

  struct Later {
    bool operator()(const Event* a, const Event* b) const noexcept {
      return a->time != b->time ? a->time > b->time : a->seq > b->seq;
    }
  };

  // A free record with its kind and target set; the caller fills the
  // payload and enqueues it.
  Event* acquire_event(EventKind kind, CoreId target) {
    ++alloc_.scheduled;
    if (free_head_ == nullptr) refill_slab();
    Event* e = free_head_;
    free_head_ = e->next;
    e->kind = kind;
    e->target = target;
    return e;
  }
  void release_event(Event* e) noexcept {
    e->next = free_head_;
    free_head_ = e;
  }
  void refill_slab();

  // Stamp `e` with its time and seq and put it in the wheel, or in the
  // overflow heap when it lies beyond the wheel window.
  void enqueue(Event* e, Time delay) {
    e->time = now_ + delay;
    e->seq = next_seq_++;
    e->next = nullptr;
    if (delay < kWheelSlots) {
      append_slot(e);
    } else {
      ++alloc_.overflow_events;
      overflow_.push_back(e);
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
  }

  void mark(std::size_t idx) noexcept {
    occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_mark(std::size_t idx) noexcept {
    occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }

  // Append at the slot tail: direct schedules arrive in seq order, so the
  // slot list stays sorted by seq.
  void append_slot(Event* e) noexcept {
    const std::size_t idx = static_cast<std::size_t>(e->time) & kWheelMask;
    Slot& s = wheel_[idx];
    if (s.head == nullptr) {
      s.head = s.tail = e;
      mark(idx);
    } else {
      s.tail->next = e;
      s.tail = e;
    }
    ++wheel_count_;
  }

  // Insert a drained overflow event at its seq position (overflow events
  // carry seqs that may precede already-slotted ones).
  void insert_slot_by_seq(Event* e) noexcept;

  // Move every overflow event with time < base + kWheelSlots into the
  // wheel.
  void drain_overflow(Time base);

  // Index of the first occupied slot at/after `from`, cyclic. Worst case
  // scans the whole 1 KiB bitmap; the common case hits the first word
  // because protocol latencies keep pending events within a few slots of
  // `now`. Precondition: wheel_count_ > 0.
  std::size_t first_occupied(std::size_t from) const noexcept;

  // Unlink the next event in (time, seq) order and advance the clock to
  // it, or return null when the queue is idle or that event lies after
  // `limit` (the clock then stays put). Inlined into run(): the common
  // case is an empty overflow heap and a hit in the first bitmap word.
  inline Event* pop_next(Time limit);

  // Run `e` through the handler, then recycle its record.
  inline void fire(Event* e);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t wheel_count_ = 0;
  std::unique_ptr<Slot[]> wheel_;
  std::uint64_t occ_[kOccWords] = {};  // bit per slot: list nonempty
  std::vector<Event*> overflow_;       // min-heap on (time, seq) via Later
  Event* free_head_ = nullptr;
  std::vector<std::unique_ptr<Event[]>> slabs_;
  HandlerFn handler_ = nullptr;
  void* handler_ctx_ = nullptr;
  AllocStats alloc_;
};

}  // namespace sbq::sim
