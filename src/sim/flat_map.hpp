// FlatMap — open-addressing hash table keyed on Addr.
//
// The simulator's per-line tables (directory lines, core-side lines,
// pending requests, per-line stats) all key on Addr and share the
// same access pattern: a small, dense, known set of lines (queue head/tail
// words, node cells) hit millions of times. std::unordered_map pays a
// node allocation per entry and a pointer chase per lookup; FlatMap keeps
// entries in one contiguous slot array with linear probing, so the hot
// lookup is typically one cache line.
//
// Design notes:
//  * Power-of-two capacity; slot index via Fibonacci hashing (the
//    multiplicative constant spreads the low entropy of word-addresses).
//  * Linear probing with tombstones; erase() marks the slot and resets the
//    value so owned resources free immediately.
//  * When live + dead slots exceed 7/8 of capacity the table either
//    doubles (live entries justify it) or compacts in place at the same
//    capacity (tombstone-heavy churn) — compaction reuses the existing
//    arrays, so unbounded insert/erase churn never allocates. Both move
//    values: like unordered_map::rehash they invalidate references, so
//    callers must not hold a mapped reference across an insertion (the
//    simulator's call sites are audited for this; the flat_map unit test
//    covers reference stability of non-rehashing ops).
//  * Iteration yields std::pair<Addr, V>& in slot order. Nothing on an
//    output path iterates these tables, so slot order is not
//    schedule-visible (asserted by the byte-identical driver check).
#pragma once

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
    std::size_t index() const noexcept { return i_; }

   private:
    void skip() noexcept {
      while (i_ < map_->state_.size() && map_->state_[i_] != kFull) ++i_;
    }
    Map* map_;
    std::size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() noexcept { return {this, 0}; }
  iterator end() noexcept { return {this, state_.size()}; }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, state_.size()}; }

  iterator find(Addr key) noexcept {
    const std::size_t i = find_index(key);
    return {this, i == kNotFound ? state_.size() : i};
  }
  const_iterator find(Addr key) const noexcept {
    const std::size_t i = find_index(key);
    return {this, i == kNotFound ? state_.size() : i};
  }

  std::size_t count(Addr key) const noexcept {
    return find_index(key) == kNotFound ? 0 : 1;
  }

  V& at(Addr key) noexcept {
    const std::size_t i = find_index(key);
    assert(i != kNotFound && "FlatMap::at: key not present");
    return slots_[i].second;
  }
  const V& at(Addr key) const noexcept {
    const std::size_t i = find_index(key);
    assert(i != kNotFound && "FlatMap::at: key not present");
    return slots_[i].second;
  }

  V& operator[](Addr key) {
    if (state_.empty() || (size_ + dead_ + 1) * 8 > state_.size() * 7) {
      grow();
    }
    const std::size_t mask = state_.size() - 1;
    std::size_t i = slot_hash(key) & mask;
    std::size_t tomb = kNotFound;
    for (;; i = (i + 1) & mask) {
      if (state_[i] == kEmpty) break;
      if (state_[i] == kTomb) {
        if (tomb == kNotFound) tomb = i;
      } else if (slots_[i].first == key) {
        return slots_[i].second;
      }
    }
    if (tomb != kNotFound) {
      i = tomb;
      --dead_;
    }
    state_[i] = kFull;
    slots_[i].first = key;
    ++size_;
    return slots_[i].second;
  }

  std::size_t erase(Addr key) noexcept {
    const std::size_t i = find_index(key);
    if (i == kNotFound) return 0;
    erase_slot(i);
    return 1;
  }

  void erase(iterator it) noexcept { erase_slot(it.index()); }

  // Pre-size so `n` entries fit without rehashing (like unordered_map::
  // reserve). The sim_microbench zero-alloc gate pre-sizes the directory
  // and core line tables for a run's whole address range this way.
  void reserve(std::size_t n) {
    std::size_t cap = state_.empty() ? kMinCapacity : state_.size();
    while ((n + 1) * 8 > cap * 7) cap *= 2;
    if (cap > state_.size()) rehash_to(cap);
  }

 private:
  // Snapshot serialization (sim/serialize.cpp) persists the exact slot
  // layout: slot indices feed probe chains, so an "equivalent" reinsertion
  // could change the capacity/probe profile vs the in-memory fork path.
  friend struct SnapshotSerde;

  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2, kUnplaced = 3 };
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  static std::size_t slot_hash(Addr key) noexcept {
    return static_cast<std::size_t>(
        (key * std::uint64_t{0x9E3779B97F4A7C15}) >> 16);
  }

  std::size_t find_index(Addr key) const noexcept {
    // An empty table answers without hashing (the pending-request table is
    // empty on most cache hits).
    if (size_ == 0) return kNotFound;
    const std::size_t mask = state_.size() - 1;
    for (std::size_t i = slot_hash(key) & mask;; i = (i + 1) & mask) {
      if (state_[i] == kEmpty) return kNotFound;
      if (state_[i] == kFull && slots_[i].first == key) return i;
    }
  }

  void erase_slot(std::size_t i) noexcept {
    state_[i] = kTomb;
    slots_[i].second = V{};  // release owned resources eagerly
    --size_;
    ++dead_;
    // A tombstone directly before an empty slot terminates every probe
    // chain that crosses it, so it (and any tombstone run ending there) can
    // revert to empty. This keeps erase-heavy churn (pending requests)
    // from reaching the compaction threshold in the common case; runs
    // pinned against a live slot are handled by the occasional
    // allocation-free compact_in_place().
    const std::size_t mask = state_.size() - 1;
    if (state_[(i + 1) & mask] == kEmpty) {
      std::size_t j = i;
      while (state_[j] == kTomb) {
        state_[j] = kEmpty;
        --dead_;
        j = (j - 1) & mask;
      }
    }
  }

  void grow() {
    std::size_t cap = state_.empty() ? kMinCapacity : state_.size();
    // Double only when live entries justify it; a tombstone-heavy table
    // compacts in place at the same capacity, without allocating.
    while ((size_ + 1) * 8 > cap * 7) cap *= 2;
    if (cap == state_.size()) {
      compact_in_place();
    } else {
      rehash_to(cap);
    }
  }

  // Drop every tombstone and re-place the live entries, reusing the
  // existing arrays: long insert/erase churn therefore never allocates
  // (the whole-machine zero-alloc gate relies on this). Like any rehash it
  // moves values, under the same no-references-across-insertion contract.
  void compact_in_place() {
    const std::size_t mask = state_.size() - 1;
    for (auto& s : state_) {
      if (s == kTomb) s = kEmpty;
      else if (s == kFull) s = kUnplaced;
    }
    dead_ = 0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] != kUnplaced) continue;
      Slot cur = std::move(slots_[i]);
      state_[i] = kEmpty;
      for (;;) {
        std::size_t j = slot_hash(cur.first) & mask;
        while (state_[j] == kFull) j = (j + 1) & mask;
        if (state_[j] == kEmpty) {
          slots_[j] = std::move(cur);
          state_[j] = kFull;
          break;
        }
        // An unplaced entry occupies the target slot: displace it and
        // place it next (every displacement settles one entry for good).
        Slot tmp = std::move(slots_[j]);
        slots_[j] = std::move(cur);
        state_[j] = kFull;
        cur = std::move(tmp);
      }
    }
  }

  void rehash_to(std::size_t cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_state = std::move(state_);
    slots_ = std::vector<Slot>(cap);  // default-construct: V may be move-only
    state_.assign(cap, kEmpty);
    dead_ = 0;
    const std::size_t mask = cap - 1;
    for (std::size_t s = 0; s < old_state.size(); ++s) {
      if (old_state[s] != kFull) continue;
      std::size_t i = slot_hash(old_slots[s].first) & mask;
      while (state_[i] != kEmpty) i = (i + 1) & mask;
      state_[i] = kFull;
      slots_[i] = std::move(old_slots[s]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> state_;
  std::size_t size_ = 0;
  std::size_t dead_ = 0;  // tombstones
};

}  // namespace sbq::sim
