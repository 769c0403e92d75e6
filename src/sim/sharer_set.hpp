// SharerSet — bare-bitmask sharer tracking with canonical ascending-order
// iteration.
//
// Membership lives in uint64_t words indexed by core id, so contains() is
// one bit test and size() a popcount: the §3.3 invalidate-all-sharers
// broadcast never hashes per sharer. Iteration — which decides the Inv
// delivery order the directory produces, and through per-core abort/retry
// timing is *schedule-visible* — walks the bitmask in ascending core-id
// order, the machine's one Inv schedule (see docs/protocol.md
// "Invalidation order").
//
// The word array carries inline storage (SmallBuf) sized so machines of up
// to 64 cores — more than any evaluated configuration — never heap-allocate
// per line; fresh lines (every new basket node) would otherwise charge
// allocations against the sim_microbench whole-machine zero-alloc gate.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/types.hpp"

namespace sbq::sim {

namespace detail {

// Fixed-fill resizable buffer of a trivial T with N elements inline.
// Covers exactly what the per-line bit sets need (resize-with-fill,
// assign-with-fill, indexing); spills to the heap beyond N and never
// shrinks. The inline array shares its bytes with the heap pointer, so a
// buffer is N elements plus two 32-bit counts: the line table keeps one
// or two of these in every record.
template <typename T, std::size_t N>
class SmallBuf {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N >= 1);

 public:
  SmallBuf() noexcept = default;
  SmallBuf(const SmallBuf& o) { copy_from(o); }
  SmallBuf& operator=(const SmallBuf& o) {
    if (this != &o) {
      size_ = 0;
      copy_from(o);
    }
    return *this;
  }
  SmallBuf(SmallBuf&& o) noexcept { steal(o); }
  SmallBuf& operator=(SmallBuf&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~SmallBuf() { release(); }

  std::size_t size() const noexcept { return size_; }
  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }

  // Grow to `n` elements, new slots set to `fill` (no-op shrink excluded:
  // the bit sets only ever grow these buffers).
  void resize(std::size_t n, T fill) {
    ensure(n);
    T* d = data();
    for (std::size_t i = size_; i < n; ++i) d[i] = fill;
    size_ = static_cast<std::uint32_t>(n);
  }

  void assign(std::size_t n, T fill) {
    ensure(n);
    std::fill_n(data(), n, fill);
    size_ = static_cast<std::uint32_t>(n);
  }

 private:
  bool on_heap() const noexcept { return cap_ > N; }
  T* data() noexcept { return on_heap() ? heap_ : inline_; }
  const T* data() const noexcept { return on_heap() ? heap_ : inline_; }

  void ensure(std::size_t n) {
    if (n <= cap_) return;
    const std::size_t cap = std::max<std::size_t>(n, std::size_t{cap_} * 2);
    T* heap = new T[cap];
    std::copy(data(), data() + size_, heap);
    release();
    heap_ = heap;
    cap_ = static_cast<std::uint32_t>(cap);
  }
  void release() noexcept {
    if (on_heap()) delete[] heap_;
    cap_ = N;
  }
  void copy_from(const SmallBuf& o) {
    ensure(o.size_);
    std::copy(o.data(), o.data() + o.size_, data());
    size_ = o.size_;
  }
  // Requires an inline (released) buffer.
  void steal(SmallBuf& o) noexcept {
    if (o.on_heap()) {
      heap_ = o.heap_;
      cap_ = std::exchange(o.cap_, static_cast<std::uint32_t>(N));
    } else {
      std::copy(o.inline_, o.inline_ + o.size_, inline_);
    }
    size_ = std::exchange(o.size_, 0);
  }

  union {
    T inline_[N] = {};
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;  // above N: the elements live at heap_
};

}  // namespace detail

class SharerSet {
 public:
  // One word covers 64 cores — more than any evaluated configuration — so
  // per-line sharer state is a single inline word in the common case.
  static constexpr std::size_t kInlineWords = 1;

  SharerSet() = default;

  bool contains(CoreId id) const noexcept {
    const auto w = static_cast<std::size_t>(id) >> 6;
    return w < words_.size() &&
           (words_[w] >> (static_cast<std::size_t>(id) & 63)) & 1;
  }

  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      n += static_cast<std::size_t>(std::popcount(words_[i]));
    }
    return n;
  }
  bool empty() const noexcept { return size() == 0; }

  // One word per 64 cores, bit = core id.
  const detail::SmallBuf<std::uint64_t, kInlineWords>& words() const noexcept {
    return words_;
  }

  void insert(CoreId id) {
    assert(id >= 0 && "sharer ids are non-negative core ids");
    if (contains(id)) return;
    const auto need_words = (static_cast<std::size_t>(id) >> 6) + 1;
    if (words_.size() < need_words) words_.resize(need_words, 0);
    words_[static_cast<std::size_t>(id) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(id) & 63);
  }

  std::size_t erase(CoreId id) {
    if (!contains(id)) return 0;
    words_[static_cast<std::size_t>(id) >> 6] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(id) & 63));
    return 1;
  }

  void clear() noexcept { words_.assign(words_.size(), 0); }

  // Iteration in ascending core-id order (the canonical Inv order): a
  // word-by-word bit scan, no per-sharer hashing or chain chasing.
  class const_iterator {
   public:
    using value_type = CoreId;
    const_iterator(const SharerSet* s, std::size_t word) : set_(s), w_(word) {
      if (w_ < set_->words_.size()) {
        bits_ = set_->words_[w_];
        settle();
      }
    }
    CoreId operator*() const noexcept {
      return static_cast<CoreId>((w_ << 6) +
                                 static_cast<std::size_t>(
                                     std::countr_zero(bits_)));
    }
    const_iterator& operator++() noexcept {
      bits_ &= bits_ - 1;  // clear the lowest set bit
      settle();
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return w_ == o.w_ && bits_ == o.bits_;
    }
    bool operator!=(const const_iterator& o) const noexcept {
      return !(*this == o);
    }

   private:
    void settle() noexcept {
      while (bits_ == 0 && ++w_ < set_->words_.size()) {
        bits_ = set_->words_[w_];
      }
      if (bits_ == 0) w_ = set_->words_.size();
    }
    const SharerSet* set_;
    std::size_t w_;
    std::uint64_t bits_ = 0;
  };

  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, words_.size()}; }

 private:
  // Snapshot serialization (sim/serialize.cpp) restores the word array
  // verbatim.
  friend struct SnapshotSerde;

  // membership bitmask, bit = core id
  detail::SmallBuf<std::uint64_t, kInlineWords> words_;
};

}  // namespace sbq::sim
