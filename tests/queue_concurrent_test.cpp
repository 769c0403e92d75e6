// Cross-queue tests: every queue of the lineup (queues/queue_kind.hpp),
// built by with_native_queue at the one native sizing, runs the same
// single-thread checks and the same randomized mixed workload, the latter
// parameterized by thread mix. These are the "one harness, five queues"
// tests mirroring the paper's benchmark setup (§6.1); the per-queue test
// files keep only what is specific to one queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "queues/native_lineup.hpp"
#include "queue_test_util.hpp"

namespace sbq {

// Test names print the lineup name instead of the enum's bytes.
void PrintTo(QueueKind kind, std::ostream* os) { *os << queue_kind_name(kind); }

namespace {

using testutil::Element;

// "SBQ-HTM" -> "SBQ_HTM": gtest names take no '-'.
std::string test_name(QueueKind kind) {
  std::string name = queue_kind_name(kind);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class NativeLineupTest : public ::testing::TestWithParam<QueueKind> {};

TEST_P(NativeLineupTest, EmptyDequeueReturnsNull) {
  with_native_queue<Element>(GetParam(), 2, [](auto& q) {
    EXPECT_EQ(q.dequeue(0), nullptr);
    EXPECT_EQ(q.dequeue(1), nullptr);
  });
}

TEST_P(NativeLineupTest, FifoSingleThread) {
  with_native_queue<Element>(GetParam(), 1, [](auto& q) {
    Element vals[50];
    for (auto& v : vals) q.enqueue(&v, 0);
    for (auto& v : vals) EXPECT_EQ(q.dequeue(0), &v);
    EXPECT_EQ(q.dequeue(0), nullptr);
  });
}

INSTANTIATE_TEST_SUITE_P(AllQueues, NativeLineupTest,
                         ::testing::ValuesIn(evaluated_queue_kinds()),
                         [](const ::testing::TestParamInfo<QueueKind>& info) {
                           return test_name(info.param);
                         });

struct MixParam {
  QueueKind kind;
  int producers;
  int consumers;
};

std::string mix_name(const MixParam& p) {
  return "_p" + std::to_string(p.producers) + "_c" +
         std::to_string(p.consumers);
}

void PrintTo(const MixParam& p, std::ostream* os) {
  *os << queue_kind_name(p.kind) << mix_name(p);
}

class QueueMixTest : public ::testing::TestWithParam<MixParam> {};

// Producers take thread ids [0, P) and consumers [P, P + C), so one id
// space serves every queue.
TEST_P(QueueMixTest, NoLossNoDupPerProducerFifo) {
  const auto& p = GetParam();
  constexpr std::uint64_t kPerProducer = 2000;
  with_native_queue<Element>(p.kind, p.producers + p.consumers, [&](auto& q) {
    std::vector<Element> storage;
    auto result = testutil::run_mpmc(q, p.producers, p.consumers, kPerProducer,
                                     storage, /*single_id_space=*/true);
    testutil::verify_mpmc(result, p.producers, kPerProducer);
  });
}

std::vector<MixParam> all_mixes() {
  std::vector<MixParam> out;
  for (QueueKind k : evaluated_queue_kinds()) {
    out.push_back({k, 1, 1});
    out.push_back({k, 4, 1});
    out.push_back({k, 1, 4});
    out.push_back({k, 3, 3});
    out.push_back({k, 4, 4});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllQueues, QueueMixTest,
                         ::testing::ValuesIn(all_mixes()),
                         [](const ::testing::TestParamInfo<MixParam>& info) {
                           return test_name(info.param.kind) +
                                  mix_name(info.param);
                         });

}  // namespace
}  // namespace sbq
