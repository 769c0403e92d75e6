// Native (real-thread) queue throughput with google-benchmark: all queue
// implementations of the host library under a balanced enqueue/dequeue
// workload. On this host these are correctness/overhead sanity checks; the
// paper's scaling comparison is regenerated by the simulator benches.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "replay/native_record.hpp"
#include "replay/op_trace.hpp"

#include "basket/sbq_basket.hpp"
#include "htm/cas_policy.hpp"
#include "queues/baskets_queue.hpp"
#include "queues/cc_queue.hpp"
#include "queues/faa_queue.hpp"
#include "queues/ms_queue.hpp"
#include "queues/sbq.hpp"

namespace {

constexpr int kMaxThreads = 16;
int g_payload = 0;

// Each benchmark thread alternates enqueue/dequeue (a "pairwise" workload:
// the queue stays near-empty but every op executes its full path).
template <typename MakeQueue>
void pairwise(benchmark::State& state, MakeQueue make) {
  static std::unique_ptr<typename std::invoke_result_t<MakeQueue>::element_type>
      queue;
  if (state.thread_index() == 0) queue = make();
  const int tid = state.thread_index();
  for (auto _ : state) {
    queue->enqueue(&g_payload, tid);
    benchmark::DoNotOptimize(queue->dequeue(tid));
  }
  state.SetItemsProcessed(state.iterations() * 2);
  if (state.thread_index() == 0) {
    state.counters["threads"] = static_cast<double>(state.threads());
  }
}

void BM_SbqHtm(benchmark::State& state) {
  using Q = sbq::Queue<int, sbq::SbqBasket<int>, sbq::HtmCas>;
  pairwise(state, [live = state.threads()] {
    typename Q::Config cfg{};
    cfg.max_enqueuers = kMaxThreads;
    cfg.max_dequeuers = kMaxThreads;
    cfg.live_enqueuers = static_cast<std::size_t>(live);
    return std::make_unique<Q>(cfg);
  });
}
BENCHMARK(BM_SbqHtm)->ThreadRange(1, 8)->UseRealTime();

void BM_SbqCas(benchmark::State& state) {
  using Q = sbq::Queue<int, sbq::SbqBasket<int>, sbq::DelayedCas>;
  pairwise(state, [live = state.threads()] {
    typename Q::Config cfg{};
    cfg.max_enqueuers = kMaxThreads;
    cfg.max_dequeuers = kMaxThreads;
    cfg.live_enqueuers = static_cast<std::size_t>(live);
    return std::make_unique<Q>(cfg);
  });
}
BENCHMARK(BM_SbqCas)->ThreadRange(1, 8)->UseRealTime();

void BM_BqOriginal(benchmark::State& state) {
  pairwise(state, [] {
    return std::make_unique<sbq::BasketsQueue<int>>(kMaxThreads);
  });
}
BENCHMARK(BM_BqOriginal)->ThreadRange(1, 8)->UseRealTime();

void BM_MsQueue(benchmark::State& state) {
  pairwise(state, [] {
    return std::make_unique<sbq::MsQueue<int>>(kMaxThreads);
  });
}
BENCHMARK(BM_MsQueue)->ThreadRange(1, 8)->UseRealTime();

void BM_FaaQueue(benchmark::State& state) {
  pairwise(state, [] {
    return std::make_unique<sbq::FaaQueue<int, 256>>(kMaxThreads);
  });
}
BENCHMARK(BM_FaaQueue)->ThreadRange(1, 8)->UseRealTime();

void BM_CcQueue(benchmark::State& state) {
  pairwise(state, [] {
    return std::make_unique<sbq::CcQueue<int>>(kMaxThreads);
  });
}
BENCHMARK(BM_CcQueue)->ThreadRange(1, 8)->UseRealTime();

// Op-level trace recording (docs/replay.md): --record-ops=PREFIX bypasses
// google-benchmark entirely and instead runs every native queue once under
// the ticket-instrumented pairwise harness, writing PREFIX-<queue>.ops trace
// files suitable for sbq_check_history and sim replay.
int record_ops_main(const char* prefix, int threads, int pairs,
                    unsigned long long seed) {
  sbq::replay::NativeRecordSpec spec;
  if (threads > 0) spec.threads = threads;
  if (pairs > 0) spec.pairs_per_thread = static_cast<std::uint64_t>(pairs);
  spec.seed = seed;
  for (const std::string& name : sbq::replay::native_record_queue_names()) {
    sbq::replay::OpTrace trace;
    if (!sbq::replay::record_native_queue(name, spec, trace)) {
      std::fprintf(stderr, "record failed for %s\n", name.c_str());
      return 1;
    }
    const std::string path = std::string(prefix) + "-" + name + ".ops";
    if (!sbq::replay::write_op_trace_file(path, trace)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("recorded %s: %zu ops -> %s\n", name.c_str(),
                trace.records.size(), path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* record_prefix = nullptr;
  int record_threads = 0;
  int record_pairs = 0;
  unsigned long long record_seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--record-ops=", 13) == 0) {
      record_prefix = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--record-threads=", 17) == 0) {
      record_threads = std::atoi(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--record-pairs=", 15) == 0) {
      record_pairs = std::atoi(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--record-seed=", 14) == 0) {
      record_seed = std::strtoull(argv[i] + 14, nullptr, 10);
    }
  }
  if (record_prefix != nullptr) {
    return record_ops_main(record_prefix, record_threads, record_pairs,
                           record_seed);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
