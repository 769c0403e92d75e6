// Open-loop arrival process for the queue service harness
// (docs/service.md "The load model").
//
// Closed-loop sweeps (every fig*/ablation_* driver) re-issue the next op
// the moment the previous one finishes, so offered load collapses to
// whatever the queue can absorb. A *service* measurement needs the
// opposite: arrivals are generated by an external process, land whether or
// not the broker has caught up, and the queueing delay they accumulate is
// the measurement. This header generates those arrival schedules.
//
// Determinism guarantee: a schedule is a pure function of (ArrivalConfig,
// count) — same config and count, same timestamps, on every host and under
// any --jobs value. All randomness flows from one Xoshiro256 stream seeded
// with ArrivalConfig::seed; no wall-clock, no std::random_device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace sbq::service {

// Memoryless arrivals at a constant mean rate: the M/G/c baseline every
// queueing result is stated against, and the only process the harness
// generates. The enum keeps its one enumerator because
// benchmark/sbq_bench.cpp assigns ArrivalKind::kPoisson to
// ArrivalConfig::kind.
enum class ArrivalKind { kPoisson };

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  // Mean offered load, arrivals per 1000 simulated cycles (0.4 ns/cycle:
  // 1.0 /kcycle = 2.5 M arrivals/s machine-wide).
  double rate_per_kcycle = 4.0;
  std::uint64_t seed = 1;
};

// `count` arrival timestamps in cycles, non-decreasing, each >= 1 cycle
// after the previous (simulated time is integral, so gaps are rounded up
// to at least one cycle — at extreme rates the schedule saturates at one
// arrival per cycle, which is itself a meaningful overload). Throws
// std::invalid_argument unless the rate is finite and positive.
std::vector<sim::Time> generate_arrivals(const ArrivalConfig& cfg,
                                         std::size_t count);

// One arrival as seen by a load-generator worker: the global op id (which
// is also the element payload offset and the index into the arrival-time
// table) plus its scheduled arrival time.
struct WorkerArrival {
  std::size_t op = 0;
  sim::Time at = 0;
};

// Split `times` (as produced by generate_arrivals) round-robin into
// per-worker schedules, each ascending in time. Every op appears exactly
// once across the returned schedules.
std::vector<std::vector<WorkerArrival>> partition_arrivals(
    const std::vector<sim::Time>& times, int workers);

}  // namespace sbq::service
