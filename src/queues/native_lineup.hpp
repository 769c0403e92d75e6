// The native (host-thread) twin of the simulator's with_queue: the one
// place that maps a QueueKind to a native queue class and sizes it. The
// native_queues benchmark, replay::record_native_queue and the cross-queue
// tests all construct their queues here, so their sizing cannot drift.
//
// A queue is built for `threads` thread ids, [0, threads), each of which
// may both enqueue and dequeue:
//   SBQ-HTM / SBQ-CAS  max_enqueuers = max_dequeuers = threads (the basket
//                      capacity is the thread count, and every enqueuer is
//                      live);
//   WF-Queue           the FAA segment queue with 256-slot segments;
//   BQ-Original, CC-Queue, MS-Queue  sized for `threads`.
// Recorded native traces are timed and checked at exactly this sizing.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

#include "basket/sbq_basket.hpp"
#include "htm/cas_policy.hpp"
#include "queues/baskets_queue.hpp"
#include "queues/cc_queue.hpp"
#include "queues/faa_queue.hpp"
#include "queues/ms_queue.hpp"
#include "queues/queue_kind.hpp"
#include "queues/sbq.hpp"

namespace sbq {

// The queue K names, holding T*, built for `threads` thread ids.
template <typename T, QueueKind K>
auto make_native_queue(int threads) {
  const auto n = static_cast<std::size_t>(threads);
  if constexpr (K == QueueKind::kSbqHtm || K == QueueKind::kSbqCas) {
    using Cas =
        std::conditional_t<K == QueueKind::kSbqHtm, HtmCas, DelayedCas>;
    using Q = Queue<T, SbqBasket<T>, Cas>;
    typename Q::Config cfg{};
    cfg.max_enqueuers = n;
    cfg.max_dequeuers = n;
    return std::make_unique<Q>(cfg);
  } else if constexpr (K == QueueKind::kWfQueue) {
    return std::make_unique<FaaQueue<T, 256>>(n);
  } else if constexpr (K == QueueKind::kBqOriginal) {
    return std::make_unique<BasketsQueue<T>>(n);
  } else if constexpr (K == QueueKind::kCcQueue) {
    return std::make_unique<CcQueue<T>>(n);
  } else {
    static_assert(K == QueueKind::kMsQueue);
    return std::make_unique<MsQueue<T>>(n);
  }
}

template <typename T, QueueKind K>
using NativeQueue =
    typename decltype(make_native_queue<T, K>(1))::element_type;

// Builds the queue `kind` names for `threads` thread ids and returns
// fn(queue); the queue lives until fn returns.
template <typename T, typename Fn>
decltype(auto) with_native_queue(QueueKind kind, int threads, Fn&& fn) {
  return visit_queue_kind(kind, [&](auto k) -> decltype(auto) {
    const auto queue = make_native_queue<T, decltype(k)::value>(threads);
    return fn(*queue);
  });
}

}  // namespace sbq
