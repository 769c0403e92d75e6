// The queue lineup of the paper's evaluation (§6.1) as one vocabulary that
// the simulated and the native queues share: the simulator's with_queue
// (bench/sim_queue_bench_util.hpp) and the native with_native_queue
// (queues/native_lineup.hpp) both dispatch on a QueueKind, and recorded
// op traces name their queue by queue_kind_name. We additionally expose
// the Michael–Scott queue (the CAS-retry ancestor) for context.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace sbq {

enum class QueueKind {
  kSbqHtm,
  kSbqCas,
  kWfQueue,
  kBqOriginal,
  kCcQueue,
  kMsQueue,
};

inline const std::vector<QueueKind>& evaluated_queue_kinds() {
  static const std::vector<QueueKind> kinds = {
      QueueKind::kSbqHtm,   QueueKind::kSbqCas,  QueueKind::kWfQueue,
      QueueKind::kBqOriginal, QueueKind::kCcQueue, QueueKind::kMsQueue};
  return kinds;
}

inline const char* queue_kind_name(QueueKind kind) {
  switch (kind) {
    case QueueKind::kSbqHtm: return "SBQ-HTM";
    case QueueKind::kSbqCas: return "SBQ-CAS";
    case QueueKind::kWfQueue: return "WF-Queue";
    case QueueKind::kBqOriginal: return "BQ-Original";
    case QueueKind::kCcQueue: return "CC-Queue";
    case QueueKind::kMsQueue: return "MS-Queue";
  }
  throw std::logic_error("bad QueueKind");
}

inline QueueKind queue_kind_from_name(const std::string& name) {
  for (QueueKind kind : evaluated_queue_kinds()) {
    if (name == queue_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown queue: " + name);
}

inline const std::vector<std::string>& queue_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (QueueKind kind : evaluated_queue_kinds()) {
      out.emplace_back(queue_kind_name(kind));
    }
    return out;
  }();
  return names;
}

// Calls fn(std::integral_constant<QueueKind, K>{}) for the K that `kind`
// names, so code templated on the kind can be reached from a runtime value.
template <typename Fn>
decltype(auto) visit_queue_kind(QueueKind kind, Fn&& fn) {
  using K = QueueKind;
  switch (kind) {
    case K::kSbqHtm: return fn(std::integral_constant<K, K::kSbqHtm>{});
    case K::kSbqCas: return fn(std::integral_constant<K, K::kSbqCas>{});
    case K::kWfQueue: return fn(std::integral_constant<K, K::kWfQueue>{});
    case K::kBqOriginal: return fn(std::integral_constant<K, K::kBqOriginal>{});
    case K::kCcQueue: return fn(std::integral_constant<K, K::kCcQueue>{});
    case K::kMsQueue: return fn(std::integral_constant<K, K::kMsQueue>{});
  }
  throw std::logic_error("bad QueueKind");
}

}  // namespace sbq
