// ContentionPolicy: cross-backend decision equivalence and unit semantics.
//
// The native TxCas loop (src/htm/txcas.hpp) and the sim's TxCasOp state
// machine (src/sim/core.cpp) both construct their retry policy from the
// same ContentionPolicy class. These tests pin that down:
//  * the two factory paths produce identical decision streams (step
//    verdicts and delay lengths) for the fixed policy, the only one native
//    TxCAS runs, when given the same delays and the same abort-cause script;
//  * native TxCAS's retry bounds are the simulator's defaults;
//  * each policy kind's semantics: fixed reproduces the constants and
//    adaptive-backoff walks the DHM ladder deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "benchsupport/sweep.hpp"
#include "common/contention.hpp"
#include "htm/cas_policy.hpp"
#include "htm/txcas.hpp"
#include "sim/types.hpp"

namespace sbq {
namespace {

// ---------------------------------------------------------------------------
// The shared retry bounds and delays.
// ---------------------------------------------------------------------------

TEST(ContentionDefaults, SimUsesSharedNonconflictBudget) {
  const sim::TxCasConfig cfg;
  EXPECT_EQ(cfg.max_nonconflict_aborts,
            static_cast<int>(kDefaultNonconflictAbortBudget));
}

// Twin check: native TxCAS bounds its attempts and its non-conflict aborts
// exactly as the simulator's default TxCAS does.
TEST(ContentionDefaults, NativeRetryBoundsAreTheSimDefaults) {
  const ContentionKnobs native =
      TxCas<std::uint64_t>::make_policy(TxCasConfig{}).knobs();
  const ContentionKnobs simk =
      sim::make_contention_policy({}, sim::TxCasConfig{}).knobs();
  EXPECT_EQ(native.max_attempts, simk.max_attempts);
  EXPECT_EQ(native.max_nonconflict_aborts, simk.max_nonconflict_aborts);
}

// Twin check: the native §4 delays (nanoseconds) are the simulator's
// defaults (cycles) at the simulator's clock, so neither can drift alone.
TEST(ContentionDefaults, NativeDelaysAreTheSimCyclesInNanoseconds) {
  const sim::TxCasConfig simc;
  const TxCasConfig native;
  EXPECT_EQ(simc.intra_txn_delay, 675u);
  EXPECT_EQ(simc.post_abort_delay, 130u);
  EXPECT_EQ(native.intra_txn_delay_ns,
            std::llround(static_cast<double>(simc.intra_txn_delay) *
                         ns_per_cycle()));
  EXPECT_EQ(native.post_abort_delay_ns,
            std::llround(static_cast<double>(simc.post_abort_delay) *
                         ns_per_cycle()));
  EXPECT_EQ(native.intra_txn_delay_ns, 270u);
  EXPECT_EQ(native.post_abort_delay_ns, 52u);
  // SBQ-CAS waits TxCAS's intra-transaction delay before its plain CAS.
  EXPECT_EQ(DelayedCas{}.delay_ns, native.intra_txn_delay_ns);
}

TEST(ContentionDefaults, PolicyNamesRoundTrip) {
  for (int i = 0; i < kContentionPolicyKindCount; ++i) {
    const auto kind = static_cast<ContentionPolicyKind>(i);
    ContentionPolicyKind parsed;
    ASSERT_TRUE(contention_policy_from_name(contention_policy_name(kind),
                                            parsed));
    EXPECT_EQ(parsed, kind);
  }
  ContentionPolicyKind sink = ContentionPolicyKind::kFixed;
  EXPECT_FALSE(contention_policy_from_name("bogus", sink));
  EXPECT_FALSE(contention_policy_from_name("", sink));
  EXPECT_EQ(sink, ContentionPolicyKind::kFixed);  // junk leaves out alone
}

// ---------------------------------------------------------------------------
// Cross-backend differential: both factories, same delays, same script,
// identical decisions.
// ---------------------------------------------------------------------------

// One recorded decision trace: the pre-attempt verdict sequence plus every
// delay the policy handed out.
struct Trace {
  std::vector<int> steps;
  std::vector<std::uint64_t> intra;
  std::vector<std::uint64_t> post;
  std::uint32_t attempts = 0;

  bool operator==(const Trace& o) const {
    return steps == o.steps && intra == o.intra && post == o.post &&
           attempts == o.attempts;
  }
};

// Drive one policy through a scripted abort sequence the way both backends
// do: ask next_step() before each attempt, take the intra delay, apply the
// scripted abort (post-abort delay after read conflicts), stop when the
// policy says fallback or the script ends in a commit.
Trace drive(ContentionPolicy policy, ContentionPolicy::State state,
            const std::vector<CasAbort>& aborts) {
  Trace t;
  policy.begin_call();
  std::size_t i = 0;
  for (;;) {
    const CasStep step = policy.next_step();
    t.steps.push_back(static_cast<int>(step));
    if (step != CasStep::kTxn) break;
    policy.note_attempt();
    t.intra.push_back(policy.intra_delay(state));
    if (i >= aborts.size()) {  // script exhausted: this attempt commits
      policy.on_commit(state);
      break;
    }
    const CasAbort a = aborts[i++];
    policy.on_abort(state, a);
    if (a == CasAbort::kReadConflict) {
      t.post.push_back(policy.post_abort_delay(state));
    }
  }
  t.attempts = policy.attempts();
  return t;
}

// Scripts covering the interesting shapes: pure conflict storms, pure
// non-conflict storms, and mixes that straddle the degradation bounds.
std::vector<std::vector<CasAbort>> scripts() {
  using A = CasAbort;
  std::vector<std::vector<CasAbort>> s;
  s.push_back({});                                      // first-try commit
  s.push_back({A::kReadConflict});                      // one §4.2 wait
  s.push_back({A::kWriteConflict, A::kReadConflict});   // tripped then wait
  s.push_back(std::vector<A>(10, A::kNonConflict));     // sick HTM
  s.push_back(std::vector<A>(70, A::kReadConflict));    // past max_attempts
  s.push_back(std::vector<A>(70, A::kWriteConflict));
  std::vector<A> mixed;
  for (int i = 0; i < 30; ++i) {
    mixed.push_back(i % 3 == 0 ? A::kNonConflict
                               : (i % 3 == 1 ? A::kReadConflict
                                             : A::kWriteConflict));
  }
  s.push_back(mixed);
  return s;
}

class CrossBackend : public ::testing::TestWithParam<int> {};

TEST_P(CrossBackend, NativeAndSimFactoriesDecideIdentically) {
  const auto kind = static_cast<ContentionPolicyKind>(GetParam());

  // The simulator's default delays, as numbers, through the native config;
  // both sides keep their default retry bounds.
  TxCasConfig native;
  native.intra_txn_delay_ns = 675;
  native.post_abort_delay_ns = 130;

  const sim::TxCasConfig simc;
  ContentionPolicyParams params;
  params.kind = kind;
  params.seed = 99;

  const ContentionPolicy a = TxCas<std::uint64_t>::make_policy(native);
  const ContentionPolicy b = sim::make_contention_policy(params, simc);
  // Same persistent history on both sides (stream 5, arbitrary).
  const ContentionPolicy::State s0 = ContentionPolicy::seeded_state(99, 5);

  for (const auto& script : scripts()) {
    EXPECT_EQ(drive(a, s0, script), drive(b, s0, script));
  }
}

// Native TxCAS runs only the fixed policy; the AdaptiveBackoff cases below
// cover the simulator's adaptive semantics.
INSTANTIATE_TEST_SUITE_P(AllKinds, CrossBackend,
                         ::testing::Values(0),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = contention_policy_name(
                               static_cast<ContentionPolicyKind>(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Per-kind semantics.
// ---------------------------------------------------------------------------

ContentionPolicy make(ContentionPolicyKind kind,
                      std::uint32_t max_attempts = 64,
                      std::uint32_t max_nc = kDefaultNonconflictAbortBudget) {
  ContentionPolicyParams p;
  p.kind = kind;
  return ContentionPolicy(p, ContentionKnobs{675, 130, max_attempts, max_nc});
}

TEST(FixedPolicy, ReproducesTheConstants) {
  ContentionPolicy p = make(ContentionPolicyKind::kFixed);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  p.begin_call();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    EXPECT_EQ(p.intra_delay(s), 675u);
    p.on_abort(s, CasAbort::kReadConflict);
    EXPECT_EQ(p.post_abort_delay(s), 130u);
  }
}

TEST(FixedPolicy, AttemptBudgetFallsBackOnBudgetLane) {
  ContentionPolicy p = make(ContentionPolicyKind::kFixed, /*max_attempts=*/3);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  p.begin_call();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    p.on_abort(s, CasAbort::kWriteConflict);
  }
  EXPECT_EQ(p.next_step(), CasStep::kFallbackBudget);
}

TEST(FixedPolicy, NonconflictBudgetDegrades) {
  ContentionPolicy p = make(ContentionPolicyKind::kFixed, 64, /*max_nc=*/2);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  p.begin_call();
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    p.on_abort(s, CasAbort::kNonConflict);
  }
  EXPECT_EQ(p.next_step(), CasStep::kFallbackDegraded);
}

TEST(FixedPolicy, BeginCallResetsTheNonconflictCount) {
  ContentionPolicy p = make(ContentionPolicyKind::kFixed);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  p.begin_call();
  for (std::uint32_t i = 0; i < kDefaultNonconflictAbortBudget; ++i) {
    p.note_attempt();
    p.on_abort(s, CasAbort::kNonConflict);
  }
  ASSERT_EQ(p.next_step(), CasStep::kFallbackDegraded);
  p.begin_call();  // new TxCAS call: fresh counters, persistent State kept
  EXPECT_EQ(p.next_step(), CasStep::kTxn);
}

TEST(FixedPolicy, ZeroNonconflictBudgetDisablesDegradation) {
  ContentionPolicy p = make(ContentionPolicyKind::kFixed, 8, /*max_nc=*/0);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  p.begin_call();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    p.on_abort(s, CasAbort::kNonConflict);
  }
  // Non-conflict aborts never degrade; only the attempt bound ends the call.
  EXPECT_EQ(p.next_step(), CasStep::kFallbackBudget);
}

TEST(AdaptiveBackoff, IntraDelayWalksTheLadderWithFailureLevel) {
  ContentionPolicy p = make(ContentionPolicyKind::kAdaptiveBackoff);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  p.begin_call();
  // Level 0: floor = 675 >> 3 = 84.
  EXPECT_EQ(p.intra_delay(s), 675u >> 3);
  // Conflicts escalate the level; delay doubles until the 2*675 cap.
  std::uint64_t prev = p.intra_delay(s);
  for (int i = 0; i < 8; ++i) {
    p.on_abort(s, CasAbort::kWriteConflict);
    const std::uint64_t d = p.intra_delay(s);
    EXPECT_GE(d, prev);
    EXPECT_LE(d, 2u * 675u);
    prev = d;
  }
  EXPECT_EQ(prev, 2u * 675u);  // saturated at the cap
  // Commits decay the level again.
  const std::uint32_t lvl = s.failure_level;
  p.on_commit(s);
  EXPECT_EQ(s.failure_level, lvl - 1);
}

TEST(AdaptiveBackoff, FailureLevelIsBounded) {
  ContentionPolicy p = make(ContentionPolicyKind::kAdaptiveBackoff);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  for (int i = 0; i < 100; ++i) p.on_abort(s, CasAbort::kReadConflict);
  EXPECT_EQ(s.failure_level, ContentionPolicy::kMaxFailureLevel);
}

TEST(AdaptiveBackoff, PostAbortDelayIsSeededDeterministicJitter) {
  ContentionPolicy p = make(ContentionPolicyKind::kAdaptiveBackoff);
  ContentionPolicy::State s1 = ContentionPolicy::seeded_state(7, 0);
  ContentionPolicy::State s2 = s1;  // identical history => identical draws
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t full =
        bounded_exp_delay(130 >> 3, s1.failure_level, 2 * 130);
    const std::uint64_t d1 = p.post_abort_delay(s1);
    EXPECT_EQ(d1, p.post_abort_delay(s2));
    EXPECT_GE(d1, full / 2);
    EXPECT_LE(d1, full);
    p.on_abort(s1, CasAbort::kReadConflict);
    p.on_abort(s2, CasAbort::kReadConflict);
  }
  // Different streams desynchronize.
  ContentionPolicy::State s3 = ContentionPolicy::seeded_state(7, 1);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (p.post_abort_delay(s1) != p.post_abort_delay(s3)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(AdaptiveBackoff, CommitDecrementsFailureLevelByOne) {
  ContentionPolicy p = make(ContentionPolicyKind::kAdaptiveBackoff);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  s.failure_level = 5;
  const std::uint32_t expected[] = {4, 3, 2, 1, 0, 0};
  for (std::uint32_t want : expected) {
    p.on_commit(s);
    EXPECT_EQ(s.failure_level, want);
  }
}

TEST(AdaptiveBackoff, NonconflictAbortsDoNotEscalate) {
  ContentionPolicy p = make(ContentionPolicyKind::kAdaptiveBackoff);
  ContentionPolicy::State s = ContentionPolicy::seeded_state(1, 0);
  p.on_abort(s, CasAbort::kNonConflict);
  EXPECT_EQ(s.failure_level, 0u);  // capacity/interrupt are not contention
}

}  // namespace
}  // namespace sbq
