// CAS policies pluggable into sbq::Queue's try_append.
//
// The paper evaluates SBQ-HTM (TxCAS) against SBQ-CAS (plain CAS with the
// same delay inserted before the attempt). Both are expressed here as
// policies satisfying the CasPolicy concept, so sbq::Queue is instantiated
// once and measured with either.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>

#include "common/backoff.hpp"
#include "htm/txcas.hpp"

namespace sbq {

template <typename P, typename T>
concept CasPolicy = requires(const P& p, std::atomic<T>& a, T v) {
  { p(a, v, v) } noexcept -> std::same_as<bool>;
};

// SBQ-CAS from §6.1: plain CAS preceded by the same delay TxCAS performs
// between its read and write. The delay widens the window in which multiple
// enqueuers observe the same tail, which grows the baskets and is why
// SBQ-CAS tracks SBQ-HTM at low concurrency (Figure 5).
struct DelayedCas {
  std::uint32_t delay_ns = TxCasConfig{}.intra_txn_delay_ns;

  template <typename T>
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    if (target.load(std::memory_order_acquire) != expected) return false;
    spin_for_ns(delay_ns);
    return target.compare_exchange_strong(expected, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }
};

// TxCAS policy wrapper. The embedded TxCasConfig sets the two §4 delays;
// the retry bounds are the simulator's (txcas.hpp). Without RTM every call
// is one plain CAS with no delay.
struct HtmCas {
  TxCasConfig config{};

  template <typename T>
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    return TxCas<T>(config)(target, expected, desired);
  }
};

static_assert(CasPolicy<DelayedCas, void*>);
static_assert(CasPolicy<HtmCas, void*>);

}  // namespace sbq
