// ContentionPolicy: the shared TxCAS retry brain (paper §4, PAPERS.md).
//
// The paper's retry design has four knobs — intra-txn delay (§4.1),
// post-abort delay (§4.2), bounded attempts, plain-CAS fallback — and both
// backends (native `TxCas` in src/htm/txcas.hpp, sim `TxCasOp` in
// src/sim/core.cpp) used to hardcode the resulting decision logic
// independently. This header centralizes it: given the attempt number, the
// classified abort cause and the per-thread failure history, a
// ContentionPolicy answers *what next* — how long to delay inside the
// transaction, how long to wait after a read-phase abort, whether to retry
// transactionally, or which fallback lane to take (budget-exhausted vs
// degraded).
//
// Two policies ship behind the same interface:
//  - kFixed            the paper's constants (the default, and the only
//                      policy native TxCAS runs); the simulator's goldens
//                      are byte-identical under it.
//  - kAdaptiveBackoff  Dice–Hendler–Mirsky-style per-thread failure-history
//                      delay scaling: the intra-txn delay starts below the
//                      paper's fixed value and doubles toward a cap while
//                      conflicts persist, decaying again on commits. The
//                      post-abort delay is scaled the same way and jittered
//                      from a seeded PRNG stream (deterministic in the sim,
//                      where the stream is serialized with the core).
//
// The object is allocation-free and trivially copyable. Per-call counters
// (attempt number, non-conflict abort count) live in the policy object
// itself; the *persistent* cross-call history (PRNG stream, failure level)
// lives in a separate POD `ContentionPolicy::State` owned by the caller: a
// field of the per-core `TxCasOp` slot in the sim (serialized by
// src/sim/serialize.cpp so snapshot/fork identity holds). The native
// backend always runs the fixed policy, which reads no history, so it keeps
// no persistent state: each call makes a fresh one. Both backends take
// their attempt bound and non-conflict budget from the two constants
// below.
#pragma once

#include <cstdint>

#include "common/backoff.hpp"
#include "common/rng.hpp"

namespace sbq {

enum class ContentionPolicyKind : std::uint8_t {
  kFixed = 0,
  kAdaptiveBackoff = 1,
};

inline constexpr int kContentionPolicyKindCount = 2;

inline constexpr const char* contention_policy_name(
    ContentionPolicyKind k) noexcept {
  switch (k) {
    case ContentionPolicyKind::kFixed: return "fixed";
    case ContentionPolicyKind::kAdaptiveBackoff: return "adaptive-backoff";
  }
  return "unknown";
}

// Parse a policy name; returns false (and leaves `out` alone) on junk.
inline bool contention_policy_from_name(const char* name,
                                        ContentionPolicyKind& out) noexcept {
  const auto eq = [](const char* a, const char* b) noexcept {
    while (*a && *a == *b) { ++a; ++b; }
    return *a == *b;
  };
  for (int i = 0; i < kContentionPolicyKindCount; ++i) {
    const auto k = static_cast<ContentionPolicyKind>(i);
    if (eq(name, contention_policy_name(k))) {
      out = k;
      return true;
    }
  }
  return false;
}

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

// Tuning parameters selecting and configuring a policy. Plumbed through
// sim::MachineConfig (and thus into machine_config_digest); the native
// backend always uses the defaults (kFixed).
struct ContentionPolicyParams {
  ContentionPolicyKind kind = ContentionPolicyKind::kFixed;

  // Root of the deterministic jitter stream (adaptive-backoff). Each
  // thread/core derives its own stream from (seed, stream id).
  std::uint64_t seed = 1;

  // adaptive-backoff: the intra-txn delay ladder spans
  //   [fixed_delay >> backoff_floor_shift, fixed_delay * backoff_ceil_mult]
  // indexed by the per-thread failure level.
  std::uint32_t backoff_floor_shift = 3;
  std::uint32_t backoff_ceil_mult = 2;

  bool operator==(const ContentionPolicyParams&) const = default;

  // Field list (sim/types.hpp "Field lists"): part of the canonical config
  // bytes, so the kind and every knob key machine_config_digest.
  template <class V>
  void fields(V& v) {
    v("kind", kind, kContentionPolicyKindCount);
    v("seed", seed);
    v("backoff_floor_shift", backoff_floor_shift);
    v("backoff_ceil_mult", backoff_ceil_mult);
  }
};

// The backend-supplied §4 knobs, in whatever time unit the backend uses
// (nanoseconds natively, cycles in the sim). The policy scales and
// bounds its answers relative to these.
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
  // Persistent per-thread/per-core history. POD so the sim can serialize
  // it field-by-field (encode_core/decode_core) and fork byte-identically.
  struct State {
    std::uint64_t rng = 0;          // SplitMix64 stream position
    std::uint32_t failure_level = 0;  // DHM failure history (bounded)

    template <class V>
    void fields(V& v) {
      v("rng", rng);
      v("failure_level", failure_level);
    }
  };

  static constexpr std::uint32_t kMaxFailureLevel = 16;

  static State seeded_state(std::uint64_t seed, std::uint64_t stream) noexcept {
    // Decorrelate streams with one SplitMix64 scramble of (seed, stream).
    SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
    return State{sm.next(), 0};
  }

  ContentionPolicy() = default;
  ContentionPolicy(const ContentionPolicyParams& p,
                   const ContentionKnobs& k) noexcept
      : params_(p), knobs_(k) {}

  // Reset the per-call counters (persistent State is untouched).
  void begin_call() noexcept {
    attempts_ = 0;
    nonconflict_aborts_ = 0;
  }

  // Decide before each transactional attempt. Order matches the historical
  // checks in both backends: the attempt bound first, then degradation.
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

  // Intra-transaction delay for the current attempt (§4.1). Pure function
  // of the persistent failure level — no PRNG draw, so the sim can keep
  // layering its own schedule jitter on top without disturbing streams.
  std::uint64_t intra_delay(const State& s) const noexcept {
    if (params_.kind != ContentionPolicyKind::kAdaptiveBackoff) {
      return knobs_.intra_txn_delay;
    }
    return scaled_delay(knobs_.intra_txn_delay, s.failure_level);
  }

  // Post-abort delay after a read-phase (nested) conflict abort (§4.2).
  // adaptive-backoff jitters it from the persistent stream: deterministic
  // given State, desynchronized across threads/cores.
  std::uint64_t post_abort_delay(State& s) const noexcept {
    if (params_.kind != ContentionPolicyKind::kAdaptiveBackoff) {
      return knobs_.post_abort_delay;
    }
    const std::uint64_t full =
        scaled_delay(knobs_.post_abort_delay, s.failure_level);
    if (full == 0) return 0;
    SplitMix64 sm(s.rng);
    const std::uint64_t draw = sm.next();
    s.rng += 0x9e3779b97f4a7c15ULL;  // advance the stream position
    const std::uint64_t half = full / 2;
    return half + draw % (full - half + 1);
  }

  // Record an abort of the given class.
  void on_abort(State& s, CasAbort a) noexcept {
    if (a == CasAbort::kNonConflict) {
      ++nonconflict_aborts_;
    } else if (s.failure_level < kMaxFailureLevel) {
      ++s.failure_level;
    }
  }

  // Record a transactional commit: the failure history decays one rung
  // (the DHM step).
  void on_commit(State& s) const noexcept {
    if (s.failure_level > 0) --s.failure_level;
  }

  std::uint32_t attempts() const noexcept { return attempts_; }
  std::uint32_t nonconflict_aborts() const noexcept {
    return nonconflict_aborts_;
  }
  const ContentionPolicyParams& params() const noexcept { return params_; }
  const ContentionKnobs& knobs() const noexcept { return knobs_; }

 private:
  // DHM ladder relative to the fixed knob: starts at knob >> floor_shift,
  // doubles per failure level, saturates at knob * ceil_mult.
  std::uint64_t scaled_delay(std::uint64_t fixed,
                             std::uint32_t level) const noexcept {
    if (fixed == 0) return 0;
    std::uint64_t base = fixed >> params_.backoff_floor_shift;
    if (base == 0) base = 1;
    const std::uint64_t cap =
        fixed * (params_.backoff_ceil_mult == 0 ? 1 : params_.backoff_ceil_mult);
    return bounded_exp_delay(base, level, cap);
  }

  ContentionPolicyParams params_{};
  ContentionKnobs knobs_{};
  // Per-call counters (reset by begin_call).
  std::uint32_t attempts_ = 0;
  std::uint32_t nonconflict_aborts_ = 0;
};

}  // namespace sbq
