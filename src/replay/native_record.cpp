#include "replay/native_record.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "queues/native_lineup.hpp"

namespace sbq::replay {

namespace {

// Unique, nonzero, >= the sim's kFirstElement (16) — safe to replay into
// the simulated queues, whose reserved cell markers live below 16.
std::uint64_t value_of(int thread, std::uint64_t i) {
  return (static_cast<std::uint64_t>(thread + 1) << 32) | (i + 1);
}

// One workload over any native queue with `void enqueue(T*, int)` /
// `T* dequeue(int)`. Values travel in preallocated per-thread slots so the
// dequeuer recovers the logical value through the returned pointer.
template <typename Q>
void run_pairwise(Q& q, const NativeRecordSpec& spec, OpTrace& out) {
  const int threads = spec.threads;
  const std::uint64_t pairs = spec.pairs_per_thread;
  std::atomic<std::uint64_t> ticket{0};
  std::vector<std::vector<std::uint64_t>> slots(
      static_cast<std::size_t>(threads));
  std::vector<std::vector<OpRecord>> recs(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    slots[static_cast<std::size_t>(t)].resize(pairs);
    recs[static_cast<std::size_t>(t)].reserve(2 * pairs);
  }

  auto worker = [&](int t) {
    auto& my_slots = slots[static_cast<std::size_t>(t)];
    auto& my_recs = recs[static_cast<std::size_t>(t)];
    for (std::uint64_t i = 0; i < pairs; ++i) {
      const std::uint64_t v = value_of(t, i);
      my_slots[i] = v;
      const std::uint64_t inv = ticket.fetch_add(1);
      q.enqueue(&my_slots[i], t);
      const std::uint64_t resp = ticket.fetch_add(1);
      my_recs.push_back({t, kOpEnqueue, v, inv, resp, 1});

      const std::uint64_t inv2 = ticket.fetch_add(1);
      std::uint64_t* p = q.dequeue(t);
      const std::uint64_t resp2 = ticket.fetch_add(1);
      my_recs.push_back({t, kOpDequeue, 0, inv2, resp2, p ? *p : 0});
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  // Single-threaded drain on thread 0's ids: completes the history so the
  // checker's VOrd/VWit clauses (which assume every enqueued value is
  // eventually dequeued) are sound. The final null marks emptiness.
  auto& drain_recs = recs[0];
  for (;;) {
    const std::uint64_t inv = ticket.fetch_add(1);
    std::uint64_t* p = q.dequeue(0);
    const std::uint64_t resp = ticket.fetch_add(1);
    drain_recs.push_back({0, kOpDequeue, 0, inv, resp, p ? *p : 0});
    if (p == nullptr) break;
  }

  out.records.clear();
  for (const auto& r : recs) {
    out.records.insert(out.records.end(), r.begin(), r.end());
  }
}

}  // namespace

bool record_native_queue(const std::string& queue_name,
                         const NativeRecordSpec& spec, OpTrace& out) {
  if (spec.threads < 1 || spec.threads > 64) return false;
  if (spec.pairs_per_thread < 1 ||
      spec.pairs_per_thread > (std::uint64_t{1} << 24)) {
    return false;
  }
  const int threads = spec.threads;
  QueueKind kind;
  try {
    kind = queue_kind_from_name(queue_name);
  } catch (const std::invalid_argument&) {
    return false;
  }

  out = OpTrace{};
  out.source = TraceSource::kNative;
  out.queue = queue_name;
  out.workload = 2;  // mixed: every thread both enqueues and dequeues
  out.producers = static_cast<std::uint32_t>(threads);
  out.consumers = static_cast<std::uint32_t>(threads);
  out.ops_per_thread = spec.pairs_per_thread;
  out.prefill = 0;
  out.seed = spec.seed;
  out.prefill_seed = 0;
  out.basket_capacity = static_cast<std::uint32_t>(threads);

  with_native_queue<std::uint64_t>(
      kind, threads, [&](auto& q) { run_pairwise(q, spec, out); });
  return true;
}

}  // namespace sbq::replay
