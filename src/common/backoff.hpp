// Bounded exponential backoff and calibrated busy-wait delays.
//
// TxCAS (§4.1 of the paper) requires a *timed* intra-transaction delay
// (~270 ns on the authors' Broadwell) and a short post-abort delay (§4.2).
// Inside a hardware transaction one cannot call clock functions (they may
// abort the transaction), so the delay must be a calibrated spin loop:
// spin_for_ns converts nanoseconds to cpu_relax iterations with the
// ns-per-relax this process measured before main (common/spin.cpp).
#pragma once

#include <cmath>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sbq {

// One "relax" hint to the pipeline (PAUSE on x86).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

// Spin for approximately `iters` relax iterations. Transaction-safe: touches
// no memory and makes no calls that could abort an HTM transaction.
inline void spin_iterations(std::uint32_t iters) noexcept {
  for (std::uint32_t i = 0; i < iters; ++i) cpu_relax();
}

namespace detail {
// Set once, before main, by the calibration in common/spin.cpp: the
// minimum over five timed trials of 1000 cpu_relax calls, per call.
extern double g_ns_per_relax;
}  // namespace detail

// Nanoseconds one cpu_relax() takes on this host.
inline double ns_per_relax() noexcept { return detail::g_ns_per_relax; }

// Iterations of cpu_relax() that last at least `ns` nanoseconds at
// `relax_ns` each: 0 for 0, at least 1 for any other delay, and clamped
// to UINT32_MAX instead of overflowing.
inline std::uint32_t relax_iterations(std::uint64_t ns,
                                      double relax_ns) noexcept {
  if (ns == 0) return 0;
  const double iters = std::ceil(static_cast<double>(ns) / relax_ns);
  if (!(iters < 4294967295.0)) return 0xffffffffU;
  return static_cast<std::uint32_t>(iters);
}

// Spin for about `ns` nanoseconds. Transaction-safe like spin_iterations:
// the conversion reads one global that is never written after main starts.
inline void spin_for_ns(std::uint64_t ns) noexcept {
  spin_iterations(relax_iterations(ns, ns_per_relax()));
}

// Classic bounded exponential backoff for CAS retry loops.
class Backoff {
 public:
  explicit Backoff(std::uint32_t min_iters = 1, std::uint32_t max_iters = 1024) noexcept
      : cur_(min_iters), max_(max_iters) {}

  void pause() noexcept {
    spin_iterations(cur_);
    if (cur_ < max_) cur_ *= 2;
  }

  void reset(std::uint32_t min_iters = 1) noexcept { cur_ = min_iters; }

 private:
  std::uint32_t cur_;
  std::uint32_t max_;
};

}  // namespace sbq
