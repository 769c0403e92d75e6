// Optional event trace: records protocol-level events for the coherence-
// dynamics benchmark (Figure 2a/2b), for debugging protocol behaviour, and
// for machine-readable export (`--trace=FILE` on the bench drivers).
//
// The buffer is a bounded ring: once `capacity` events are recorded the
// oldest are overwritten and `dropped()` counts how many were lost — long
// simulations keep the *tail* of their history instead of growing without
// bound. events() returns the retained events in record order.
//
// Recording is allocation-free on the steady path: `what` is an interned
// string literal (static storage duration) rather than a per-event
// std::string, interconnect sends store their payload as POD fields and the
// "send <type> -> <dst>" text is synthesized at print/export time, and the
// ring is reserved to capacity up front when tracing is enabled. The
// sim_microbench alloc gate runs a trace-enabled phase to pin this.
//
// write_jsonl() emits one JSON object per line; the schema (field meanings
// and the vocabulary of `event` strings) is documented in
// docs/observability.md.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace sbq::sim {

struct TraceEvent {
  Time time;
  CoreId node;        // acting node (core or directory)
  const char* what;   // interned literal, e.g. "GetM complete", "txcas commit"
  Addr addr;
  std::int64_t detail;  // event-specific (value, requester id, ...)
  // Interconnect sends carry their message as POD so the hot path never
  // builds a per-message string; consumers see the synthesized
  // "send <type> -> <dst>" text via print()/write_jsonl().
  bool is_send = false;
  MsgType msg_type = MsgType::kGetS;
  CoreId dst = -1;
};

class Trace {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit Trace(bool enabled = false,
                 std::size_t capacity = kDefaultCapacity)
      : enabled_(enabled), capacity_(capacity == 0 ? 1 : capacity) {
    // Reserve eagerly so steady-state recording never reallocates.
    if (enabled_) ring_.reserve(capacity_);
  }

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  std::size_t capacity() const noexcept { return capacity_; }

  // `what` must be a string literal (or otherwise outlive the trace); the
  // ring stores the pointer, not a copy.
  void record(Time t, CoreId node, const char* what, Addr addr,
              std::int64_t detail = 0);

  // Interconnect send: POD-only fast path (no string assembly).
  void record_send(Time t, CoreId src, CoreId dst, MsgType type, Addr addr,
                   std::int64_t requester);

  // Retained events, oldest first. Until the ring wraps this is a cheap
  // reference-like copy of the underlying buffer; after wrapping it stitches
  // the two halves back into record order.
  std::vector<TraceEvent> events() const;
  std::size_t size() const noexcept { return ring_.size(); }
  // Events overwritten after the ring filled up.
  std::uint64_t dropped() const noexcept { return dropped_; }
  void clear() noexcept {
    ring_.clear();
    next_ = 0;
    dropped_ = 0;
  }

  // Pretty-print, optionally filtered to one address.
  void print(std::ostream& os, Addr only_addr = 0) const;

  // One JSON object per line:
  //   {"t":<cycles>,"node":<id>,"event":"<what>","addr":<a>,"detail":<d>}
  // filtered to `only_addr` when non-zero. Schema: docs/observability.md.
  void write_jsonl(std::ostream& os, Addr only_addr = 0) const;

 private:
  void push(const TraceEvent& e);

  bool enabled_;
  std::size_t capacity_;
  std::size_t next_ = 0;  // ring insertion point once |ring_| == capacity_
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> ring_;
};

// Always-on last-messages ring for post-mortem dumps. Unlike Trace (opt-in
// via --trace), this is a small fixed buffer of POD records filled on every
// interconnect send — cheap enough to leave on unconditionally (a handful
// of stores per message, zero steady-state allocations), so the quiescence
// watchdog, the invariant checker, and the divergence bisector can dump the
// tail of the message history even when no trace was requested.
struct DebugRingEntry {
  Time time = 0;
  CoreId src = -1;
  CoreId dst = -1;
  MsgType type = MsgType::kGetS;
  Addr addr = 0;
  Value value = 0;
};

class DebugRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  // The capacity rounds up to a power of two, so a send indexes the ring
  // with a mask.
  explicit DebugRing(std::size_t capacity = kDefaultCapacity)
      : ring_(std::bit_ceil(capacity == 0 ? std::size_t{1} : capacity)),
        mask_(ring_.size() - 1) {}

  void record(Time t, CoreId src, CoreId dst, MsgType type, Addr addr,
              Value value) noexcept {
    DebugRingEntry& e = ring_[recorded_ & mask_];
    e.time = t;
    e.src = src;
    e.dst = dst;
    e.type = type;
    e.addr = addr;
    e.value = value;
    ++recorded_;
  }

  std::uint64_t recorded() const noexcept { return recorded_; }
  std::size_t capacity() const noexcept { return ring_.size(); }

  // Human-readable dump of the retained tail, oldest first.
  void dump(std::ostream& os) const;

 private:
  std::vector<DebugRingEntry> ring_;
  std::uint64_t mask_;
  std::uint64_t recorded_ = 0;
};

}  // namespace sbq::sim
