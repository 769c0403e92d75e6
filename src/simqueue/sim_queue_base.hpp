// Common conventions and helpers for the simulated queue implementations.
//
// Simulated memory is a flat array of 64-bit words, one word per cache
// line. Queues lay out their structures explicitly:
//   * "pointers" are word addresses (0 = NULL),
//   * elements are values >= kFirstElement so the reserved small values
//     (NULL / INSERT / EMPTY / TAKEN marks) can never collide with data.
//
// Memory reclamation is intentionally *not* simulated: the simulator's
// memory is unbounded and reclamation costs the paper measures (a handful
// of uncontended loads/stores per operation) are represented by the
// protector announce/validate accesses that remain in the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/coro.hpp"
#include "sim/core.hpp"
#include "sim/machine.hpp"
#include "sim/types.hpp"

namespace sbq::simq {

using sim::Addr;
using sim::Core;
using sim::Machine;
using sim::Task;
using sim::Time;
using sim::Value;

// Host-side queue state: each simulated queue keeps a few host words
// beside the simulated memory — root addresses, per-thread node caches,
// bookkeeping maps. A warmed queue reaches a forked machine one way: copy
// it and rebind the copy (SimSbq::rebind). save_host_state still flattens
// those words into a deterministic list, because the snapshot blob
// (sim/serialize.hpp) stores it and the benchmark harness times encoding
// and decoding that blob.

// Reserved cell markers (must stay below kFirstElement).
inline constexpr Value kInsertMark = 0;  // SBQ basket: cell open for insert
inline constexpr Value kEmptyMark = 1;   // SBQ basket: cell closed by extract
inline constexpr Value kTakenMark = 1;   // FAA queue: cell poisoned
inline constexpr Value kFirstElement = 16;

// advance_node (Algorithm 6): advance *ptr at least to `node`, comparing by
// the index stored at offset `index_off` within each node.
inline Task<void> advance_node(Core& c, Addr ptr, Addr node, int index_off) {
  const Value node_index =
      co_await c.load(node + static_cast<Addr>(index_off));
  for (;;) {
    const Addr old_node = co_await c.load(ptr);
    const Value old_index =
        co_await c.load(old_node + static_cast<Addr>(index_off));
    if (old_index >= node_index) co_return;
    if (co_await c.cas(ptr, old_node, node) != 0) co_return;
  }
}

// protect (Algorithm 7): announce a snapshot of *src in the protector slot
// and validate. The announcement is an uncontended store to the thread's
// own line; the validation re-read usually hits.
inline Task<Addr> protect(Core& c, Addr src, Addr protector_slot) {
  Addr snapshot = co_await c.load(src);
  for (;;) {
    co_await c.store(protector_slot, snapshot);
    const Addr current = co_await c.load(src);
    if (current == snapshot) co_return snapshot;
    snapshot = current;
  }
}

inline Task<void> unprotect(Core& c, Addr protector_slot) {
  co_await c.store(protector_slot, 0);
  co_return;
}

}  // namespace sbq::simq
