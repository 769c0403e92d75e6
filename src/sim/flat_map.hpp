// FlatMap — open-addressing hash table keyed on Addr.
//
// The simulator's line table (line_table.hpp: one record per line, holding
// the directory's fields and every core's copy) keys on Addr with one
// access pattern: a known set of lines (queue head/tail words, node cells)
// hit millions of times, and a record, once made, lives as long as the
// machine (a lost copy turns Invalid; nothing erases a record).
// std::unordered_map pays a node allocation per entry and a pointer chase
// per lookup; FlatMap keeps entries in one contiguous slot array with
// linear probing, so the hot lookup is typically one cache line.
//
// Design notes:
//  * Key kNullAddr (0) marks an empty slot, so a lookup reads one array.
//    The simulator never allocates address 0 (Machine::alloc starts at 1);
//    operator[] asserts it, and find/count of 0 answer "absent".
//  * Power-of-two capacity; slot index from the top bits of the key times
//    the golden ratio (Fibonacci hashing), which spreads the low entropy of
//    word addresses and of 64- or 4096-byte strides.
//  * No tombstones: erase shifts the rest of its probe run back (the line
//    table never erases; the simulated SBQ's open-basket counts do). The
//    table doubles when an insertion would fill more than 7/8 of it and
//    never shrinks. Growth and erase move values: like
//    unordered_map::rehash it invalidates references, so callers must not
//    hold a mapped reference across an insertion or erase (the directory
//    inserts, and no record reference outlives a delivery; the flat_map
//    unit test covers reference stability within a reserved capacity).
//  * Iteration yields std::pair<Addr, V>& in slot order. Nothing on an
//    output path depends on that order (SimSbq sorts), so slot order is not
//    schedule-visible (asserted by the byte-identical driver check).
//  * A lookaside hint sits in front of the probe: an inline array of
//    kHints slot indices, indexed by the key's low bits, each the slot
//    where a lookup of a key with those bits last ended. find and
//    operator[] try the hinted slot first; it counts only when it is in
//    bounds and holds the key, so a hint a grow left stale is just a
//    miss and the probe runs unchanged. Word-address keys cluster under
//    the top-bit index, and the hot lines of a window differ in their
//    low bits, so most lookups read one slot. The hint never places a
//    key: operator[] grows at the same calls and probes from the same
//    index as without it, so capacity and slot layout, which the
//    snapshot blob pins, do not depend on it. It is host-only state,
//    outside the blob, and needs no allocation. A const lookup writes
//    it, so a table shared between threads may be copied concurrently
//    (sweep workers fork one snapshot) but not looked up.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace sbq::sim {

template <typename V>
class FlatMap {
 public:
  using Slot = std::pair<Addr, V>;

  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  // The slot count: 0 before the first insertion, then a power of two.
  std::size_t capacity() const noexcept { return slots_.size(); }

  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const Slot, Slot>;
    Iter(Map* m, std::size_t i) : map_(m), i_(i) { skip(); }
    Ref& operator*() const noexcept { return map_->slots_[i_]; }
    Ref* operator->() const noexcept { return &map_->slots_[i_]; }
    Iter& operator++() noexcept {
      ++i_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const noexcept { return i_ == o.i_; }
    bool operator!=(const Iter& o) const noexcept { return i_ != o.i_; }

   private:
    void skip() noexcept {
      while (i_ < map_->slots_.size() && map_->slots_[i_].first == kNullAddr) {
        ++i_;
      }
    }
    Map* map_;
    std::size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() noexcept { return {this, 0}; }
  iterator end() noexcept { return {this, slots_.size()}; }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, slots_.size()}; }

  iterator find(Addr key) noexcept { return {this, find_index(key)}; }
  const_iterator find(Addr key) const noexcept {
    return {this, find_index(key)};
  }

  // The value of `key`, or null when it is absent: a find without the
  // iterator.
  V* find_ptr(Addr key) noexcept {
    const std::size_t i = find_index(key);
    return i == slots_.size() ? nullptr : &slots_[i].second;
  }
  const V* find_ptr(Addr key) const noexcept {
    const std::size_t i = find_index(key);
    return i == slots_.size() ? nullptr : &slots_[i].second;
  }

  std::size_t count(Addr key) const noexcept {
    return find_index(key) == slots_.size() ? 0 : 1;
  }

  V& at(Addr key) noexcept {
    const std::size_t i = find_index(key);
    assert(i != slots_.size() && "FlatMap::at: key not present");
    return slots_[i].second;
  }
  const V& at(Addr key) const noexcept {
    const std::size_t i = find_index(key);
    assert(i != slots_.size() && "FlatMap::at: key not present");
    return slots_[i].second;
  }

  V& operator[](Addr key) {
    assert(key != kNullAddr && "FlatMap: key 0 marks an empty slot");
    // Grow first, hit or miss, so growth happens at the same calls as
    // without the hint.
    if ((size_ + 1) * 8 > slots_.size() * 7) grow(size_ + 1);
    std::uint32_t& h = hint(key);
    if (h < slots_.size() && slots_[h].first == key) return slots_[h].second;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(key);
    for (; slots_[i].first != key; i = (i + 1) & mask) {
      if (slots_[i].first == kNullAddr) {
        slots_[i].first = key;
        ++size_;
        break;
      }
    }
    h = static_cast<std::uint32_t>(i);
    return slots_[i].second;
  }

  // Remove `key` if present: each later entry of its probe run whose home
  // slot is not after the hole moves back into it (a moved entry's hint
  // goes stale, which lookups tolerate).
  void erase(Addr key) noexcept {
    std::size_t hole = find_index(key);
    if (hole == slots_.size()) return;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; slots_[i].first != kNullAddr;
         i = (i + 1) & mask) {
      if (((i - slot_of(slots_[i].first)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  // Pre-size so `n` entries fit without rehashing (like unordered_map::
  // reserve). The sim_microbench zero-alloc gate pre-sizes the line table
  // for a run's whole address range this way.
  void reserve(std::size_t n) {
    if ((n + 1) * 8 > slots_.size() * 7) grow(n + 1);
  }

 private:
  // Snapshot serialization (sim/serialize.cpp) persists the exact slot
  // layout: slot indices feed probe chains, so an "equivalent" reinsertion
  // could change the capacity/probe profile vs the in-memory fork path.
  friend struct SnapshotSerde;

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kHints = 1024;

  std::uint32_t& hint(Addr key) const noexcept {
    return hints_[static_cast<std::size_t>(key) & (kHints - 1)];
  }

  std::size_t slot_of(Addr key) const noexcept {
    return static_cast<std::size_t>(
        (key * std::uint64_t{0x9E3779B97F4A7C15}) >> shift_);
  }

  // The slot holding `key`, or slots_.size() when it is absent.
  std::size_t find_index(Addr key) const noexcept {
    // An empty table answers without hashing; key 0 would match an empty
    // slot, so it is never present.
    if (size_ == 0 || key == kNullAddr) return slots_.size();
    std::uint32_t& h = hint(key);
    if (h < slots_.size() && slots_[h].first == key) return h;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask) {
      if (slots_[i].first == key) {
        h = static_cast<std::uint32_t>(i);
        return i;
      }
      if (slots_[i].first == kNullAddr) return slots_.size();
    }
  }

  // Rehash into the smallest power-of-two capacity that keeps `n` entries
  // within the 7/8 load bound.
  void grow(std::size_t n) {
    std::size_t cap = slots_.empty() ? kMinCapacity : slots_.size();
    while (n * 8 > cap * 7) cap *= 2;
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(cap);  // default-construct: V may be move-only
    shift_ = 64 - std::countr_zero(cap);
    const std::size_t mask = cap - 1;
    for (Slot& s : old) {
      if (s.first == kNullAddr) continue;
      std::size_t i = slot_of(s.first);
      while (slots_[i].first != kNullAddr) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
  // Slot indices, host-only: a lookup records where it ended, also through
  // a const find.
  mutable std::array<std::uint32_t, kHints> hints_{};
};

}  // namespace sbq::sim
