// Cross-queue integration/stress tests: the same randomized mixed workload
// and invariant checks run over every queue implementation in the library,
// parameterized by thread mix. These are the "one harness, five queues"
// tests mirroring the paper's benchmark setup (§6.1).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "basket/sbq_basket.hpp"
#include "common/rng.hpp"
#include "htm/cas_policy.hpp"
#include "queues/baskets_queue.hpp"
#include "queues/cc_queue.hpp"
#include "queues/faa_queue.hpp"
#include "queues/ms_queue.hpp"
#include "queues/sbq.hpp"
#include "queue_test_util.hpp"

namespace sbq {
namespace {

using testutil::Element;

// A uniform adapter giving every queue the SBQ id convention (separate
// enqueuer/dequeuer id ranges).
template <typename Q, bool kSingleIdSpace>
struct Adapter {
  template <typename... Args>
  explicit Adapter(int producers, int consumers, Args&&... args)
      : producers_(producers),
        queue_(make(producers, consumers, std::forward<Args>(args)...)) {}

  static std::unique_ptr<Q> make(int producers, int consumers) {
    if constexpr (requires { typename Q::Config; }) {
      typename Q::Config cfg{};
      cfg.max_enqueuers = static_cast<std::size_t>(producers);
      cfg.max_dequeuers = static_cast<std::size_t>(consumers);
      return std::make_unique<Q>(cfg);
    } else {
      return std::make_unique<Q>(static_cast<std::size_t>(producers + consumers));
    }
  }

  void enqueue(Element* e, int producer_id) { queue_->enqueue(e, producer_id); }
  Element* dequeue(int consumer_id) {
    return queue_->dequeue(kSingleIdSpace ? producers_ + consumer_id
                                          : consumer_id);
  }

  int producers_;
  std::unique_ptr<Q> queue_;
};

// Every queue under one test interface.
enum class Kind { kSbqHtm, kSbqCas, kBqOriginal, kMs, kFaa, kCc };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSbqHtm: return "SBQ-HTM";
    case Kind::kSbqCas: return "SBQ-CAS";
    case Kind::kBqOriginal: return "BQ-original";
    case Kind::kMs: return "MS";
    case Kind::kFaa: return "FAA";
    case Kind::kCc: return "CC";
  }
  return "?";
}

struct MixParam {
  Kind kind;
  int producers;
  int consumers;
};

void PrintTo(const MixParam& p, std::ostream* os) {
  *os << kind_name(p.kind) << "_p" << p.producers << "_c" << p.consumers;
}

class QueueMixTest : public ::testing::TestWithParam<MixParam> {};

template <typename AdapterT>
void run_and_verify(int producers, int consumers, std::uint64_t per_producer) {
  AdapterT adapter(producers, consumers);
  std::vector<Element> storage;
  auto result = testutil::run_mpmc(adapter, producers, consumers, per_producer,
                                   storage, /*single_id_space=*/false);
  testutil::verify_mpmc(result, producers, per_producer);
}

TEST_P(QueueMixTest, NoLossNoDupPerProducerFifo) {
  const auto& p = GetParam();
  constexpr std::uint64_t kPerProducer = 2000;
  using SbqHtmQ = Queue<Element, SbqBasket<Element>, HtmCas>;
  using SbqCasQ = Queue<Element, SbqBasket<Element>, DelayedCas>;
  switch (p.kind) {
    case Kind::kSbqHtm:
      run_and_verify<Adapter<SbqHtmQ, false>>(p.producers, p.consumers, kPerProducer);
      break;
    case Kind::kSbqCas:
      run_and_verify<Adapter<SbqCasQ, false>>(p.producers, p.consumers, kPerProducer);
      break;
    case Kind::kBqOriginal:
      run_and_verify<Adapter<BasketsQueue<Element>, true>>(p.producers, p.consumers,
                                                           kPerProducer);
      break;
    case Kind::kMs:
      run_and_verify<Adapter<MsQueue<Element>, true>>(p.producers, p.consumers,
                                                      kPerProducer);
      break;
    case Kind::kFaa:
      run_and_verify<Adapter<FaaQueue<Element, 64>, true>>(p.producers, p.consumers,
                                                           kPerProducer);
      break;
    case Kind::kCc:
      run_and_verify<Adapter<CcQueue<Element>, true>>(p.producers, p.consumers,
                                                      kPerProducer);
      break;
  }
}

std::vector<MixParam> all_mixes() {
  std::vector<MixParam> out;
  for (Kind k : {Kind::kSbqHtm, Kind::kSbqCas, Kind::kBqOriginal, Kind::kMs,
                 Kind::kFaa, Kind::kCc}) {
    out.push_back({k, 1, 1});
    out.push_back({k, 4, 1});
    out.push_back({k, 1, 4});
    out.push_back({k, 3, 3});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllQueues, QueueMixTest,
                         ::testing::ValuesIn(all_mixes()),
                         [](const ::testing::TestParamInfo<MixParam>& info) {
                           std::string name = kind_name(info.param.kind);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name + "_p" +
                                  std::to_string(info.param.producers) + "_c" +
                                  std::to_string(info.param.consumers);
                         });

}  // namespace
}  // namespace sbq
