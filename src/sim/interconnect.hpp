// Point-to-point interconnect with pluggable topology.
//
// Models the paper's assumptions (§3.1): point-to-point communication,
// multiple in-flight messages (not a broadcast bus), with per-hop latency
// that is small on-chip and several times larger across sockets (§4.3).
// Ordering between a given (src, dst) pair is preserved (messages sent
// earlier arrive no later), which the protocol's stall-and-queue logic
// relies on for determinism.
//
// Two topology models, selected via MachineConfig::interconnect_model:
//
//   kFlat — the original latency matrix: every hop costs intra_latency or
//           inter_latency and bandwidth is unlimited.
//   kLink — each directed socket pair owns a link with finite bandwidth.
//           A link serializes messages: it is held for link_occupancy
//           cycles per message, and a message that finds the link busy
//           waits in a FIFO occupancy queue behind earlier traffic. The
//           queue is represented by the link's busy_until horizon — a
//           message departs at max(now, busy_until), advances busy_until
//           by link_occupancy, and arrives occupancy + inter_latency
//           cycles after departing. FIFO per link plus deterministic
//           (time, seq) event ordering keeps per-pair ordering intact.
//           Intra-socket messages still use the flat intra_latency: the
//           on-chip mesh is not the bottleneck §3.1 models.
#pragma once

#include <vector>

#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"

namespace sbq::sim {

class Trace;
class DebugRing;

class Interconnect {
 public:
  // Node ids 0..cores-1 are cores; id cores is the directory/LLC, homed
  // on socket 0.
  // `debug_ring`, when non-null, records every send into a small
  // preallocated POD ring for post-mortem dumps (watchdog / invariant
  // checker) independent of the opt-in Trace.
  Interconnect(Engine& engine, const MachineConfig& cfg, Trace* trace,
               DebugRing* debug_ring = nullptr);

  // Send `msg` from `src` to `dst`: schedules a kDeliver event for `dst`
  // at the message's arrival time. The engine's handler delivers it
  // (Machine::on_event routes to the core or the directory; tests install
  // probes there).
  void send(CoreId src, CoreId dst, Message msg);

  // Divergence-bisector hook (src/replay/divergence.cpp): called on every
  // send with the same fields the DebugRing records. Null by default — one
  // predictable branch on the send path when unset, so the goldens and the
  // zero-alloc gates are unaffected. The observer must not re-enter the
  // interconnect.
  using SendObserverFn = void (*)(void* ctx, Time t, CoreId src, CoreId dst,
                                  const Message& msg);
  void set_send_observer(SendObserverFn fn, void* ctx) noexcept {
    send_observer_ = fn;
    send_observer_ctx_ = ctx;
  }

  int socket_of(CoreId node) const noexcept {
    return socket_of_[static_cast<std::size_t>(node)];
  }
  // Uncontended hop cost (the full kLink delay additionally depends on the
  // link's occupancy queue at send time).
  Time latency(CoreId src, CoreId dst) const noexcept;
  CoreId directory_id() const noexcept { return cfg_.cores; }

  std::uint64_t messages_sent() const noexcept { return state_.sent; }
  // kLink counters: messages that crossed a socket link, and the total
  // cycles those messages spent queued behind earlier link traffic (zero
  // under kFlat).
  std::uint64_t link_messages() const noexcept { return state_.link_msgs; }
  std::uint64_t link_wait_cycles() const noexcept {
    return state_.link_wait_cycles;
  }
  // Fault-plan message jitter (zero unless fault_plan.jitter_active()).
  std::uint64_t jittered_messages() const noexcept {
    return state_.jittered_msgs;
  }
  std::uint64_t jitter_cycles() const noexcept { return state_.jitter_cycles; }

  // Schedule-visible state for Machine::snapshot()/fork(), and the live
  // state send() works on. Restore is only valid against an Interconnect
  // built from the same MachineConfig (link array shape must match).
  struct State {
    std::uint64_t sent = 0;
    std::uint64_t link_msgs = 0;
    std::uint64_t link_wait_cycles = 0;
    // One directed link per socket pair, row-major [src_socket][dst_socket]:
    // the cycle at which the link frees up. Empty under kFlat; diagonal
    // entries exist but are never used (intra-socket is flat).
    std::vector<Time> link_busy_until;
    // Jitter machinery (empty/zero unless jitter is active).
    std::uint64_t jitter_rng_state = 0;
    std::uint64_t jittered_msgs = 0;
    std::uint64_t jitter_cycles = 0;
    std::vector<Time> last_arrival;  // row-major [src_node][dst_node]

    template <class V>
    void fields(V& v) {
      v("sent", sent);
      v("link_msgs", link_msgs);
      v("link_wait_cycles", link_wait_cycles);
      v("link_busy_until", link_busy_until);
      v("jitter_rng_state", jitter_rng_state);
      v("jittered_msgs", jittered_msgs);
      v("jitter_cycles", jitter_cycles);
      v("last_arrival", last_arrival);
    }
  };
  State save_state() const { return state_; }
  void restore_state(const State& s);

 private:
  Time& link_busy_until(int src_socket, int dst_socket) noexcept {
    return state_.link_busy_until[static_cast<std::size_t>(src_socket) *
                                      static_cast<std::size_t>(cfg_.sockets) +
                                  static_cast<std::size_t>(dst_socket)];
  }

  Engine& engine_;
  MachineConfig cfg_;
  Trace* trace_;
  DebugRing* debug_ring_;
  SendObserverFn send_observer_ = nullptr;
  void* send_observer_ctx_ = nullptr;
  std::size_t nodes_;           // cores + the directory
  std::vector<int> socket_of_;  // node id -> socket, built once
  // Bounded message-latency jitter (fault_plan.jitter_active() only).
  // Jitter only ever *adds* delay, and every send clamps its arrival to
  // the pair's previous arrival, so the protocol's per-(src,dst) FIFO
  // assumption survives any jitter draw. The clamp table
  // (state_.last_arrival) is preallocated [nodes²] and only consulted
  // when jitter is active.
  bool jitter_on_ = false;
  std::uint32_t jitter_threshold_ = 0;
  State state_;
};

}  // namespace sbq::sim
