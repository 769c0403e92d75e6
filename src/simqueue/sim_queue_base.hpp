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
#include <stdexcept>
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

// Host-side queue state for snapshot persistence (sim/serialize.hpp): each
// simulated queue keeps a few host words beside the simulated memory —
// root addresses, per-thread node caches, bookkeeping maps. save_host_state
// flattens them into a deterministic word list stored inside the snapshot
// blob; the matching restore constructor (Machine&, Config, const
// HostWords&) rebuilds the queue around an already-warm forked machine
// without allocating or poking simulated memory (the simulated side of the
// queue is inside the machine state).
//
// at() is bounds-checked and throws std::out_of_range — a blob whose word
// list is shorter than the config implies fails loudly, never by silent
// truncation.
struct HostWords {
  const std::uint64_t* words = nullptr;
  std::size_t count = 0;

  std::uint64_t at(std::size_t i) const {
    if (i >= count) throw std::out_of_range("HostWords: truncated word list");
    return words[i];
  }
};

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
