// ContentionPolicy: cross-backend decision equivalence and unit semantics.
//
// The native TxCas loop (src/htm/txcas.hpp) and the sim's TxCasOp state
// machine (src/sim/core.cpp) both construct their retry policy from the
// same ContentionPolicy class. These tests pin that down:
//  * the two factory paths produce identical decision streams (step
//    verdicts and delay lengths) when given the same delays and the same
//    abort-cause script;
//  * native TxCAS's retry bounds are the simulator's defaults;
//  * the policy reproduces the §4 constants and its two retry bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
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
      sim::make_contention_policy(sim::TxCasConfig{}).knobs();
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
Trace drive(ContentionPolicy policy, const std::vector<CasAbort>& aborts) {
  Trace t;
  policy.begin_call();
  std::size_t i = 0;
  for (;;) {
    const CasStep step = policy.next_step();
    t.steps.push_back(static_cast<int>(step));
    if (step != CasStep::kTxn) break;
    policy.note_attempt();
    t.intra.push_back(policy.intra_delay());
    if (i >= aborts.size()) break;  // script exhausted: this attempt commits
    const CasAbort a = aborts[i++];
    policy.on_abort(a);
    if (a == CasAbort::kReadConflict) {
      t.post.push_back(policy.post_abort_delay());
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
  // The simulator's default delays, as numbers, through the native config;
  // both sides keep their default retry bounds.
  TxCasConfig native;
  native.intra_txn_delay_ns = 675;
  native.post_abort_delay_ns = 130;

  const ContentionPolicy a = TxCas<std::uint64_t>::make_policy(native);
  const ContentionPolicy b = sim::make_contention_policy(sim::TxCasConfig{});

  for (const auto& script : scripts()) {
    EXPECT_EQ(drive(a, script), drive(b, script));
  }
}

// One instance, named after the retry policy both backends run.
INSTANTIATE_TEST_SUITE_P(AllKinds, CrossBackend, ::testing::Values(0),
                         [](const ::testing::TestParamInfo<int>&) {
                           return std::string("fixed");
                         });

// ---------------------------------------------------------------------------
// Semantics.
// ---------------------------------------------------------------------------

ContentionPolicy make(std::uint32_t max_attempts = 64,
                      std::uint32_t max_nc = kDefaultNonconflictAbortBudget) {
  return ContentionPolicy(ContentionKnobs{675, 130, max_attempts, max_nc});
}

TEST(FixedPolicy, ReproducesTheConstants) {
  ContentionPolicy p = make();
  p.begin_call();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    EXPECT_EQ(p.intra_delay(), 675u);
    p.on_abort(CasAbort::kReadConflict);
    EXPECT_EQ(p.post_abort_delay(), 130u);
  }
}

TEST(FixedPolicy, AttemptBudgetFallsBackOnBudgetLane) {
  ContentionPolicy p = make(/*max_attempts=*/3);
  p.begin_call();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    p.on_abort(CasAbort::kWriteConflict);
  }
  EXPECT_EQ(p.next_step(), CasStep::kFallbackBudget);
}

TEST(FixedPolicy, NonconflictBudgetDegrades) {
  ContentionPolicy p = make(64, /*max_nc=*/2);
  p.begin_call();
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    p.on_abort(CasAbort::kNonConflict);
  }
  EXPECT_EQ(p.next_step(), CasStep::kFallbackDegraded);
}

TEST(FixedPolicy, BeginCallResetsTheNonconflictCount) {
  ContentionPolicy p = make();
  p.begin_call();
  for (std::uint32_t i = 0; i < kDefaultNonconflictAbortBudget; ++i) {
    p.note_attempt();
    p.on_abort(CasAbort::kNonConflict);
  }
  ASSERT_EQ(p.next_step(), CasStep::kFallbackDegraded);
  p.begin_call();  // new TxCAS call: fresh counters
  EXPECT_EQ(p.next_step(), CasStep::kTxn);
}

TEST(FixedPolicy, ZeroNonconflictBudgetDisablesDegradation) {
  ContentionPolicy p = make(8, /*max_nc=*/0);
  p.begin_call();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(p.next_step(), CasStep::kTxn);
    p.note_attempt();
    p.on_abort(CasAbort::kNonConflict);
  }
  // Non-conflict aborts never degrade; only the attempt bound ends the call.
  EXPECT_EQ(p.next_step(), CasStep::kFallbackBudget);
}

}  // namespace
}  // namespace sbq
