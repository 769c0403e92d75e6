// ContentionPolicy: the shared TxCAS retry brain (paper §4, PAPERS.md).
//
// The paper's retry design has four knobs — intra-txn delay (§4.1),
// post-abort delay (§4.2), bounded attempts, plain-CAS fallback — and both
// backends (native `TxCas` in src/htm/txcas.hpp, sim `TxCasOp` in
// src/sim/core.cpp) build their retry loop from this one class: given the
// attempt number and the classified abort causes so far, it answers *what
// next* — how long to delay inside the transaction, how long to wait after
// a read-phase abort, whether to retry transactionally, or which fallback
// lane to take (budget-exhausted vs degraded).
//
// The delays are the backend's constants (ContentionKnobs). The object is
// allocation-free and trivially copyable; its only state is the per-call
// counters (attempt number, non-conflict abort count), so each call starts
// from a fresh one. Both backends take their attempt bound and
// non-conflict budget from the two constants below.
#pragma once

#include <cstdint>

namespace sbq {

// Retry bounds shared by both backends, which are the simulator's
// sim::TxCasConfig defaults and native TxCas's only values:
//  - after this many transactional attempts, take the plain-CAS fallback
//    (counted as `fallbacks`). The bound is what makes TxCAS wait-free
//    although HTM offers no progress guarantee;
//  - after this many non-conflict aborts in one TxCAS call, give up on HTM
//    and take the plain-CAS path at once (graceful degradation, counted
//    separately as `fallback_cas`).
inline constexpr std::uint32_t kDefaultMaxTxnAttempts = 64;
inline constexpr std::uint32_t kDefaultNonconflictAbortBudget = 8;

// The backend-supplied §4 knobs, in whatever time unit the backend uses
// (nanoseconds natively, cycles in the sim).
struct ContentionKnobs {
  std::uint64_t intra_txn_delay = 0;
  std::uint64_t post_abort_delay = 0;
  std::uint32_t max_attempts = 0;
  std::uint32_t max_nonconflict_aborts = 0;
};

// Classified abort cause, collapsing each backend's taxonomy to what the
// policy cares about:
//  - kReadConflict   the nested read transaction aborted on a conflict
//                    (someone is about to write; wait out the post-abort
//                    delay, re-validate, then retry).
//  - kWriteConflict  the outer transaction's write was tripped (a plain
//                    CAS or another winner hit the line; retry at once).
//  - kNonConflict    capacity / interrupt / spurious — HTM is unhappy for
//                    reasons unrelated to contention.
enum class CasAbort : std::uint8_t {
  kReadConflict = 0,
  kWriteConflict = 1,
  kNonConflict = 2,
};

// Verdict before each attempt: retry transactionally, or which fallback
// lane to take. The two fallback lanes map to the existing counters:
// kFallbackBudget -> `fallbacks`, kFallbackDegraded -> `fallback_cas`
// (disjoint by construction).
enum class CasStep : std::uint8_t {
  kTxn = 0,
  kFallbackBudget = 1,
  kFallbackDegraded = 2,
};

class ContentionPolicy {
 public:
  ContentionPolicy() = default;
  explicit ContentionPolicy(const ContentionKnobs& k) noexcept : knobs_(k) {}

  // Reset the per-call counters.
  void begin_call() noexcept {
    attempts_ = 0;
    nonconflict_aborts_ = 0;
  }

  // Decide before each transactional attempt: the attempt bound first,
  // then degradation.
  CasStep next_step() const noexcept {
    if (attempts_ >= knobs_.max_attempts) return CasStep::kFallbackBudget;
    if (knobs_.max_nonconflict_aborts > 0 &&
        nonconflict_aborts_ >= knobs_.max_nonconflict_aborts) {
      return CasStep::kFallbackDegraded;
    }
    return CasStep::kTxn;
  }

  // Record that a transactional attempt is being made.
  void note_attempt() noexcept { ++attempts_; }

  // Intra-transaction delay for each attempt (§4.1).
  std::uint64_t intra_delay() const noexcept { return knobs_.intra_txn_delay; }

  // Post-abort delay after a read-phase (nested) conflict abort (§4.2).
  std::uint64_t post_abort_delay() const noexcept {
    return knobs_.post_abort_delay;
  }

  // Record an abort of the given class: only non-conflict aborts spend
  // the degradation budget.
  void on_abort(CasAbort a) noexcept {
    if (a == CasAbort::kNonConflict) ++nonconflict_aborts_;
  }

  std::uint32_t attempts() const noexcept { return attempts_; }
  const ContentionKnobs& knobs() const noexcept { return knobs_; }

 private:
  ContentionKnobs knobs_{};
  // Per-call counters (reset by begin_call).
  std::uint32_t attempts_ = 0;
  std::uint32_t nonconflict_aborts_ = 0;
};

}  // namespace sbq
