// CAS policies pluggable into the modular baskets queue's try_append.
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

// Plain hardware CAS.
struct NativeCas {
  template <typename T>
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    return target.compare_exchange_strong(expected, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }
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

// TxCAS policy wrapper. Without RTM every attempt aborts at once, so a call
// runs max_attempts (32) empty attempts, which take tens of ns and reach no
// §4.1 delay, then one plain CAS. The embedded TxCasConfig carries the full
// retry/fallback policy, including max_nonconflict_aborts — set it to make
// the queue's appends degrade to plain CAS under persistent
// capacity/interrupt aborts instead of burning the whole transactional
// attempt budget.
struct HtmCas {
  TxCasConfig config{};

  template <typename T>
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    return TxCas<T>(config)(target, expected, desired);
  }
};

// Adaptive variant for native SBQ (see common/contention.hpp): the same
// TxCAS with the adaptive-backoff ContentionPolicy baked into the config.
// Usable anywhere HtmCas is, e.g. sbq::Queue<T, Basket, HtmCas> with
// `q.cas = adaptive_backoff_cas(seed)`. Dice–Hendler–Mirsky failure-history
// delay scaling: intra-txn/post-abort delays start below the fixed
// constants and double toward a cap while the calling thread keeps
// aborting on conflicts.
inline HtmCas adaptive_backoff_cas(std::uint64_t seed = 1) noexcept {
  HtmCas c{};
  c.config.policy.kind = ContentionPolicyKind::kAdaptiveBackoff;
  c.config.policy.seed = seed;
  return c;
}

static_assert(CasPolicy<NativeCas, void*>);
static_assert(CasPolicy<DelayedCas, void*>);
static_assert(CasPolicy<HtmCas, void*>);

}  // namespace sbq
