// Preallocated per-op latency capture (docs/service.md "Measuring
// latency").
//
// The broker records one sample per completed op from inside coroutine
// hot loops, so capture must not allocate: the buffer is reserved once, up
// front, for the run's op count, and each op pushes at most once, so
// push() never reallocates. (Past the reservation it would grow the vector
// rather than write out of bounds.) No sample is ever overwritten; the
// name stays because benchmark/sbq_bench.cpp names the type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "sim/types.hpp"

namespace sbq::service {

class LatencyRing {
 public:
  explicit LatencyRing(std::size_t capacity) { samples_.reserve(capacity); }

  void push(sim::Time cycles) { samples_.push_back(cycles); }

  std::uint64_t pushed() const noexcept { return samples_.size(); }

  // Feed the samples into a Summary, each multiplied by `scale` (pass
  // ns_per_cycle to summarize in nanoseconds).
  void drain_into(Summary& summary, double scale) const {
    for (const sim::Time s : samples_) {
      summary.add(static_cast<double>(s) * scale);
    }
  }

 private:
  std::vector<sim::Time> samples_;
};

}  // namespace sbq::service
