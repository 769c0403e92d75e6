// Discrete-event engine: a deterministic time-ordered event queue.
//
// Hot-path design: the pending set is a timing wheel — a power-of-two ring
// of slots covering the time window [now, now + kWheelSlots). Every modeled
// latency in the simulator is a small bounded constant (hit = 1 … inter-
// socket = 160 ≪ 8192), so schedule() is an O(1) append to the slot list
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
//  2. Slots are FIFO by seq: direct schedule() appends in seq order, and
//     overflow drains insert at the (time, seq) position, so equal-time
//     events run in scheduling order — runs stay fully deterministic.
//
// schedule() moves the callable into a fixed-size event node drawn from a
// per-engine slab + freelist, so steady-state scheduling performs zero
// heap allocations (nodes are recycled as events run). The node's inline
// buffer fits every callable the simulator schedules; a larger callable
// does not compile.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace sbq::sim {

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const noexcept { return now_; }

  // Schedule `fn` to run `delay` cycles from now. Events with equal
  // timestamps run in scheduling order (FIFO), which makes runs fully
  // deterministic.
  template <typename F>
  void schedule(Time delay, F fn) {
    Node* n = make_node(std::move(fn));
    n->time = now_ + delay;
    n->seq = next_seq_++;
    n->next = nullptr;
    if (delay < kWheelSlots) {
      append_slot(n);
    } else {
      ++alloc_.overflow_events;
      overflow_.push_back(n);
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
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
  // (freelist warm, overflow untouched) schedule() allocates nothing, so
  // `slab_refills` stays flat while `scheduled` grows.
  struct AllocStats {
    std::uint64_t scheduled = 0;        // total schedule() calls
    std::uint64_t slab_refills = 0;     // node-slab growths (kSlabNodes each)
    std::uint64_t overflow_events = 0;  // events beyond the wheel window
  };
  const AllocStats& alloc_stats() const noexcept { return alloc_; }

  // Grow the node slab until at least `n` nodes exist (free or in use).
  // Slab warmth is wall-clock state, not schedule state (it is excluded
  // from Checkpoint), so prewarming is always schedule-invisible. The
  // allocation gates call this on a machine forked from a deserialized
  // snapshot to keep the measured phase off the heap — the in-memory fork
  // path inherits a warm process, the decoded one starts cold.
  void prewarm_nodes(std::size_t n);
  // Total nodes backed by the slab (free + live).
  std::size_t node_capacity() const noexcept {
    return slabs_.size() * kSlabNodes;
  }

  // Checkpoint of the schedule-visible clock state, valid only at idle()
  // (no pending events — nothing in the wheel or overflow heap to capture).
  // Restoring onto an idle engine resumes the (time, seq) stream exactly
  // where the checkpointed engine left it: slot indexing is absolute-time
  // based, so now_ alone re-anchors the wheel window. The node slab and
  // freelist are deliberately NOT part of the checkpoint — warmth is a
  // wall-clock property, not a schedule-visible one (a forked machine
  // re-warms its slab on first use; see Machine::fork).
  struct Checkpoint {
    Time now = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t processed = 0;
    AllocStats alloc;
  };
  Checkpoint save_checkpoint() const;   // pre: idle()
  void restore_checkpoint(const Checkpoint& c);  // pre: idle()

 private:
  // Inline payload: the largest callables the simulator schedules are
  // message deliveries (the interconnect, a node id and the Message);
  // 96 bytes leaves headroom without bloating the per-node footprint.
  static constexpr std::size_t kInlineCapacity = 96;
  static constexpr std::size_t kSlabNodes = 256;

  // Wheel geometry: 8192 slots × 16-byte Slot = 128 KiB, heap-allocated
  // once at engine construction. Power of two so slot lookup is a mask.
  static constexpr std::size_t kWheelSlots = 8192;
  static constexpr std::size_t kWheelMask = kWheelSlots - 1;
  static constexpr std::size_t kOccWords = kWheelSlots / 64;  // 128

  struct Node {
    // Runs (when `run`) and destroys the payload. Set per schedule() call.
    void (*run_and_destroy)(Node*, bool run) = nullptr;
    Node* next = nullptr;  // slot-list link / freelist link
    Time time = 0;
    std::uint64_t seq = 0;
    alignas(std::max_align_t) unsigned char payload[kInlineCapacity];
  };

  struct Slot {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  struct Later {
    bool operator()(const Node* a, const Node* b) const noexcept {
      return a->time != b->time ? a->time > b->time : a->seq > b->seq;
    }
  };

  Node* acquire_node() {
    if (free_head_ == nullptr) refill_slab();
    Node* n = free_head_;
    free_head_ = n->next;
    return n;
  }

  // Allocate a node and move `fn` into its payload. Time/seq/linkage are
  // the caller's responsibility.
  template <typename F>
  Node* make_node(F fn) {
    static_assert(std::is_invocable_v<F&>, "event callable must be nullary");
    static_assert(sizeof(F) <= kInlineCapacity,
                  "event capture exceeds the node payload (kInlineCapacity)");
    static_assert(alignof(F) <= alignof(std::max_align_t));
    ++alloc_.scheduled;
    Node* n = acquire_node();
    ::new (static_cast<void*>(n->payload)) F(std::move(fn));
    n->run_and_destroy = [](Node* node, bool run) {
      F* f = std::launder(reinterpret_cast<F*>(node->payload));
      if (run) (*f)();
      f->~F();
    };
    return n;
  }
  void release_node(Node* n) noexcept {
    n->next = free_head_;
    free_head_ = n;
  }
  void refill_slab();

  void mark(std::size_t idx) noexcept {
    occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_mark(std::size_t idx) noexcept {
    occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }

  // Append at the slot tail: direct schedules arrive in seq order, so the
  // slot list stays sorted by seq.
  void append_slot(Node* n) noexcept {
    Slot& s = wheel_[n->time & kWheelMask];
    if (s.head == nullptr) {
      s.head = s.tail = n;
      mark(static_cast<std::size_t>(n->time) & kWheelMask);
    } else {
      s.tail->next = n;
      s.tail = n;
    }
    ++wheel_count_;
  }

  // Insert a drained overflow node at its seq position (overflow events
  // carry seqs that may precede already-slotted ones).
  void insert_slot_by_seq(Node* n) noexcept;

  // Move every overflow event with time < base + kWheelSlots into the
  // wheel. Cheap no-op (one compare) when nothing is drainable.
  void drain_overflow(Time base);

  // Index of the first occupied slot at/after `from`, cyclic. Worst case
  // scans the whole 1 KiB bitmap; the common case hits the first word
  // because protocol latencies keep pending events within a few slots of
  // `now`. Precondition: wheel_count_ > 0.
  std::size_t first_occupied(std::size_t from) const noexcept;

  // Time of the next pending event; caches its slot in next_idx_ when it
  // is already in the wheel. Does not advance now_. Pre: !idle().
  Time next_event_time();

  // Run the next event (time `t` as returned by next_event_time()); hops
  // the window forward first when the event is still in overflow.
  void dispatch_at(Time t);

  // Pop the head of slot `idx`, advance time, run it, recycle the node.
  void step_at(std::size_t idx);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t wheel_count_ = 0;
  std::size_t next_idx_ = 0;
  std::unique_ptr<Slot[]> wheel_;
  std::uint64_t occ_[kOccWords] = {};  // bit per slot: list nonempty
  std::vector<Node*> overflow_;        // min-heap on (time, seq) via Later
  Node* free_head_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> slabs_;
  AllocStats alloc_;
};

}  // namespace sbq::sim
