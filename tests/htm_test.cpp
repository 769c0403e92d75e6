// Tests for the HTM facade. The Unsupported backend (the default build)
// must report no hardware and behave as the documented "always aborts,
// non-conflict" backend; the RTM backend is exercised only where the CPU
// reports RTM.
#include <gtest/gtest.h>

#include "htm/htm.hpp"

namespace sbq::htm {
namespace {

TEST(HtmStatus, BitPredicates) {
  EXPECT_TRUE(started(kStarted));
  EXPECT_FALSE(started(0u));
  EXPECT_TRUE(is_conflict(kAbortConflict));
  EXPECT_TRUE(is_conflict(kAbortConflict | kAbortNested));
  EXPECT_FALSE(is_conflict(kAbortRetry));
  EXPECT_TRUE(is_nested(kAbortNested));
  EXPECT_FALSE(is_nested(kAbortConflict));
  EXPECT_TRUE(is_explicit(kAbortExplicit));
}

TEST(HtmStatus, ExplicitCodeExtraction) {
  const unsigned status = kAbortExplicit | (7u << 24);
  EXPECT_TRUE(is_explicit(status));
  EXPECT_EQ(explicit_code(status), 7u);
  EXPECT_EQ(explicit_code(kAbortExplicit), 0u);
}

TEST(HtmFacade, FallbackBackendNeverStarts) {
#if defined(SBQ_HAVE_RTM)
  // With the RTM backend end() is XEND, which faults outside a transaction.
  GTEST_SKIP() << "RTM backend compiled in";
#endif
  EXPECT_FALSE(hardware_available());
  const unsigned ret = begin();
  EXPECT_FALSE(started(ret));
  // The fallback abort is a non-conflict abort: callers retry / fall back.
  EXPECT_FALSE(is_conflict(ret));
  EXPECT_FALSE(in_transaction());
  end();  // must be a safe no-op outside a transaction on the fallback
}

TEST(HtmFacade, HardwareTransactionRoundTrip) {
  if (!hardware_available()) GTEST_SKIP() << "no RTM hardware";
  // With real RTM, a trivial transaction should commit within a few tries.
  int committed = 0;
  for (int attempt = 0; attempt < 100 && committed == 0; ++attempt) {
    if (started(begin())) {
      end();
      committed = 1;
    }
  }
  EXPECT_EQ(committed, 1);
}

}  // namespace
}  // namespace sbq::htm
