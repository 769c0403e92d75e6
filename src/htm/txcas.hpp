// TxCAS: compare-and-set implemented as a hardware transaction (Algorithm 1
// of the paper), with the wait-free plain-CAS fallback the paper describes
// in prose ("Progress", §4).
//
// Structure of one attempt:
//   outer xbegin
//     nested xbegin            -- so conflict aborts report the NESTED bit
//       value = *ptr
//       if value != old: xabort(1)   -- explicit self-abort => return false
//       delay()                -- intra-transaction delay (§4.1)
//     nested xend
//     *ptr = new               -- the CAS write
//   outer xend  => return true
//
// Abort handling (§4.2):
//   * explicit self-abort  -> false (value mismatch observed in the txn)
//   * non-conflict abort, or conflict after the nested txn (we may be the
//     tripped writer) -> retry immediately
//   * conflict inside the nested txn -> post-abort delay, then re-read the
//     target; if it changed, fail; else retry.
//
// Retry bounds: at most kDefaultMaxTxnAttempts attempts, and degradation
// to the plain CAS after kDefaultNonconflictAbortBudget non-conflict aborts
// (common/contention.hpp), the same constants the simulator's TxCasConfig
// defaults to. Without RTM (htm::hardware_available() false, and constexpr
// false unless the RTM backend is compiled in) no transaction can start, so
// a call goes straight to the plain-CAS fallback: semantically a plain CAS
// with neither §4 delay. (SBQ-CAS, DelayedCas in cas_policy.hpp, does
// delay.)
//
// Both delays are set in nanoseconds and spent by spin_for_ns, which
// converts them with the host's measured ns per cpu_relax.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/backoff.hpp"
#include "common/contention.hpp"
#include "htm/htm.hpp"

namespace sbq {

struct TxCasConfig {
  // Intra-transaction delay between the read and the write (§4.1: ~270 ns
  // on the paper's Broadwell). The simulator's twin is 675 cycles at
  // 0.4 ns per cycle (sim::TxCasConfig).
  std::uint32_t intra_txn_delay_ns = 270;
  // Post-abort delay before re-reading the target (§4.2): long enough for
  // an in-flight writer's GetM to complete so that our read does not trip
  // it. The simulator's twin is 130 cycles.
  std::uint32_t post_abort_delay_ns = 52;
};

// Explicit-abort code used by the value-mismatch self-abort.
inline constexpr std::uint8_t kTxCasMismatchCode = 1;

template <typename T>
class TxCas {
 public:
  explicit TxCas(TxCasConfig cfg = {}) noexcept : cfg_(cfg) {}

  // The policy this config resolves to, with the shared retry bounds: the
  // exact construction the retry loop below uses. Exposed so the
  // cross-backend differential test can drive the native decision logic
  // directly.
  static ContentionPolicy make_policy(const TxCasConfig& cfg) noexcept {
    return ContentionPolicy(
        ContentionKnobs{cfg.intra_txn_delay_ns, cfg.post_abort_delay_ns,
                        kDefaultMaxTxnAttempts,
                        kDefaultNonconflictAbortBudget});
  }

  // CAS(target, expected, desired) with TxCAS failure scalability.
  bool operator()(std::atomic<T>& target, T expected, T desired) const noexcept {
    if (!htm::hardware_available()) return plain_cas(target, expected, desired);
    ContentionPolicy policy = make_policy(cfg_);
    while (policy.next_step() == CasStep::kTxn) {
      policy.note_attempt();
      const unsigned ret = htm::begin();
      if (htm::started(ret)) {
        // Nested transaction wraps the read+check+delay so that a conflict
        // there is distinguishable from one that trips the write.
        const unsigned nested = htm::begin();
        if (htm::started(nested)) {
          const T value = target.load(std::memory_order_relaxed);
          if (value != expected) htm::abort_with(kTxCasMismatchCode);
          spin_for_ns(policy.intra_delay());
          htm::end();
        }
        target.store(desired, std::memory_order_relaxed);
        htm::end();
        return true;
      }
      // Aborted. Execution resumes here with the abort status in `ret`.
      if (htm::is_explicit(ret) && htm::explicit_code(ret) == kTxCasMismatchCode) {
        return false;  // observed a different value inside the transaction
      }
      if (!(htm::is_conflict(ret) && htm::is_nested(ret))) {
        // Either a non-conflict abort, or a conflict that tripped our write:
        // retry immediately (delaying would only waste the commit window).
        // The policy decides when non-conflict aborts have exhausted the
        // degradation budget, making further transactional retries futile.
        const bool nonconflict = !htm::is_conflict(ret) && !htm::is_explicit(ret);
        policy.on_abort(nonconflict ? CasAbort::kNonConflict
                                    : CasAbort::kWriteConflict);
        continue;
      }
      // Conflict during the read step: someone's write is in flight. Wait
      // for their GetM to finish before reading, to avoid tripping them.
      policy.on_abort(CasAbort::kReadConflict);
      spin_for_ns(policy.post_abort_delay());
      if (target.load(std::memory_order_acquire) != expected) return false;
    }
    return plain_cas(target, expected, desired);
  }

 private:
  // Wait-free fallback: a plain CAS always terminates.
  static bool plain_cas(std::atomic<T>& target, T expected, T desired) noexcept {
    return target.compare_exchange_strong(expected, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  TxCasConfig cfg_;
};

}  // namespace sbq
