// MOSI directory + LLC model.
//
// Implements the directory behaviour §3 of the paper relies on (the paper's
// analysis uses MSI for exposition and notes it applies to the MOESI/MESIF
// protocols used commercially — we include the Owned state, which real
// directories use precisely to keep read-write-shared lines from blocking):
//
//   * GetS on an I/S line: data served from the LLC, requester added as a
//     sharer.
//   * GetS on an M/O line: Fwd-GetS to the owner, which sends the data and
//     keeps the line in Owned state; the directory never blocks (this is
//     the "tripped writer" trigger of §3.4 when the owner's own GetM is
//     still in flight).
//   * GetM on an S/O line: invalidations sent BACK-TO-BACK to all sharers
//     (the key mechanism behind scalable TxCAS failures, §3.3); sharers
//     ack to the requester; data comes from the LLC (S) or the previous
//     owner (O).
//   * GetM on an M line: non-blocking owner hand-off — the directory
//     immediately re-points the owner and sends Fwd-GetM to the previous
//     owner. Back-to-back GetMs therefore build the serialized hand-off
//     chain of Figure 2a, giving contended RMWs their linear latency.
//
// The directory has a small per-request occupancy so truly simultaneous
// requests serialize slightly, as on real hardware.
//
// Value ownership: the LLC value is authoritative in I and S; in M and O
// the owner core holds the current value and all data flows through it.
//
// The directory keeps its per-line fields in the machine's line table
// (line_table.hpp), in the same record as the cores' copies.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/interconnect.hpp"
#include "sim/line_table.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"

namespace sbq::sim {

class Trace;

class Directory {
 public:
  // The directory's interconnect node is net.directory_id(); its lines
  // are the records of `lines`.
  Directory(Engine& engine, Interconnect& net, LineTable& lines,
            const MachineConfig& cfg, Trace* trace);

  // Message arrival (a kDeliver event): processes the request now, or
  // schedules a kDirProcess event once the occupancy wait has passed.
  void handle(const Message& msg);
  // Process a request (a kDirProcess event, or handle() directly).
  void process(const Message& msg);

  // Backing-store access for machine setup/teardown and debugging. Note:
  // valid only while the line is in I or S state; poke requires that no
  // core holds a valid copy.
  Value peek(Addr addr) const;
  void poke(Addr addr, Value value);

  // What only the directory sees: how each owner write-back (the
  // registry's wb_data, counted at the sending core) ended. The requests,
  // forwards and invalidations it handles are counted in the registry.
  struct Stats {
    std::uint64_t wb_accepted = 0;  // owner write-back flipped the line O->S
    std::uint64_t wb_dropped = 0;   // stale write-back (a writer intervened)

    template <class V>
    void fields(V& v) {
      v("wb_accepted", wb_accepted);
      v("wb_dropped", wb_dropped);
    }
  };
  const Stats& stats() const noexcept { return state_.stats; }

  // Test introspection.
  using LineState = sim::LineState;
  LineState line_state(Addr addr) const;
  CoreId line_owner(Addr addr) const;
  std::size_t sharer_count(Addr addr) const;

  // Schedule-visible state for Machine::snapshot()/fork() besides the line
  // table: the occupancy horizon and the write-back counters.
  struct State {
    Time busy_until = 0;
    Stats stats;

    template <class V>
    void fields(V& v) {
      v("busy_until", busy_until);
      v("stats", stats);
    }
  };
  State save_state() const { return state_; }
  void restore_state(const State& s) { state_ = s; }

 private:
  void process_gets(LineRecord& line, const Message& msg);
  void process_getm(LineRecord& line, const Message& msg);
  // Invalidate all sharers except `req`; returns the ack count.
  int invalidate_sharers(LineRecord& line, Addr addr, CoreId req);

  Engine& engine_;
  Interconnect& net_;
  MachineConfig cfg_;
  Trace* trace_;
  CoreId self_;
  LineTable& lines_;
  State state_;
};

}  // namespace sbq::sim
