// LineTable — the machine's one record per simulated line.
//
// The protocol's lookups are line-major: many cores work the same few
// lines (the Inv shower to every sharer, the serialized hand-off chain),
// and the directory touches the same line in between. So the directory
// and every core index one machine-owned table keyed by address, whose
// record holds everything about a line:
//
//   * the directory's view — state, owner, sharers, LLC value;
//   * the cores' view — one cached-copy value and a 2-bit I/S/M/O state
//     per core.
//
// One cached value per line is enough because every valid copy of a line
// holds the same value at every moment: a copy is installed from data
// that equals every other valid copy (Core::finish_request asserts it),
// and a write happens only in M, when no other core holds a valid copy.
// A core's Invalid copy keeps no value of its own, and nothing reads one.
// Each core keeps its own state bits, so the invariant checker can still
// see (and report) two M holders.
//
// Records are created by the directory when it first processes a request
// on a line (or by a setup-time poke); a core only ever looks up lines it
// has requested, so it never inserts. The table is a FlatMap: a record
// moves when an insertion grows the table, and no caller holds a record
// reference across a directory delivery.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "sim/flat_map.hpp"
#include "sim/sharer_set.hpp"
#include "sim/types.hpp"

namespace sbq::sim {

// A line's coherence state, in the directory's view or in one core's.
enum class LineState : std::uint8_t { kInvalid, kShared, kModified, kOwned };

// One 2-bit LineState per core, 32 cores per word; a core past the stored
// words reads Invalid. Two words are inline, so machines of up to 64 cores
// make no per-line heap allocation.
class CoreStates {
 public:
  static constexpr std::size_t kInlineWords = 2;

  LineState get(CoreId c) const noexcept {
    const auto i = static_cast<std::size_t>(c);
    if ((i >> 5) >= words_.size()) return LineState::kInvalid;
    return static_cast<LineState>((words_[i >> 5] >> shift(i)) & 3);
  }

  void set(CoreId c, LineState s) {
    assert(c >= 0 && "states are indexed by core id");
    const auto i = static_cast<std::size_t>(c);
    if ((i >> 5) >= words_.size()) {
      if (s == LineState::kInvalid) return;
      words_.resize((i >> 5) + 1, 0);
    }
    std::uint64_t& w = words_[i >> 5];
    w = (w & ~(std::uint64_t{3} << shift(i))) |
        (static_cast<std::uint64_t>(s) << shift(i));
  }

  // True when a core other than `c` holds a valid (non-Invalid) copy.
  bool valid_except(CoreId c) const noexcept {
    const auto i = static_cast<std::size_t>(c);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      if (w == (i >> 5)) bits &= ~(std::uint64_t{3} << shift(i));
      if (bits != 0) return true;
    }
    return false;
  }
  bool any_valid() const noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) return true;
    }
    return false;
  }

 private:
  // Snapshot serialization (sim/serialize.cpp) restores the words verbatim.
  friend struct SnapshotSerde;

  static unsigned shift(std::size_t i) noexcept {
    return static_cast<unsigned>(i & 31) * 2;
  }

  detail::SmallBuf<std::uint64_t, kInlineWords> words_;
};

struct LineRecord {
  // The cores' view: the value every valid copy holds, and who holds one.
  Value value = 0;
  CoreStates cores;
  // The directory's view.
  LineState state = LineState::kInvalid;
  CoreId owner = -1;
  SharerSet sharers;  // excludes the owner
  Value llc = 0;      // authoritative in I/S only
};

class LineTable {
 public:
  // The record of `a`, or null when nothing has touched the line.
  LineRecord* find(Addr a) noexcept { return map_.find_ptr(a); }
  const LineRecord* find(Addr a) const noexcept { return map_.find_ptr(a); }
  // The record of a line that has one (a core's requested line).
  LineRecord& at(Addr a) noexcept { return map_.at(a); }
  // The record of `a`, created empty (every state Invalid) if absent.
  LineRecord& operator[](Addr a) { return map_[a]; }

  // Core `c`'s state for `a`; Invalid for an absent line.
  LineState core_state(Addr a, CoreId c) const noexcept {
    const LineRecord* r = find(a);
    return r == nullptr ? LineState::kInvalid : r->cores.get(c);
  }

  // Pre-size for `n` distinct lines (setup-time allocation; see
  // Machine::reserve_lines).
  void reserve(std::size_t n) { map_.reserve(n); }

  // Iteration yields std::pair<Addr, LineRecord> in slot order, which is
  // not schedule-visible.
  auto begin() noexcept { return map_.begin(); }
  auto end() noexcept { return map_.end(); }
  auto begin() const noexcept { return map_.begin(); }
  auto end() const noexcept { return map_.end(); }

 private:
  // Snapshot serialization persists the exact slot layout.
  friend struct SnapshotSerde;

  FlatMap<LineRecord> map_;
};

}  // namespace sbq::sim
