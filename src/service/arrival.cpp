#include "service/arrival.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace sbq::service {

std::vector<sim::Time> generate_arrivals(const ArrivalConfig& cfg,
                                         std::size_t count) {
  // A NaN rate would make every timestamp a cast of NaN.
  if (!std::isfinite(cfg.rate_per_kcycle) || cfg.rate_per_kcycle <= 0.0) {
    throw std::invalid_argument(
        "arrival rate must be finite and positive, got " +
        std::to_string(cfg.rate_per_kcycle));
  }
  std::vector<sim::Time> out;
  out.reserve(count);
  Xoshiro256 rng(cfg.seed);
  const double lambda = cfg.rate_per_kcycle / 1000.0;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Exponential inter-arrival gap with mean 1/lambda; -log1p(-u) keeps
    // the argument strictly positive for u in [0, 1).
    const double gap = -std::log1p(-rng.next_double()) / lambda;
    t += gap < 1.0 ? 1.0 : gap;  // integral cycles: at least 1 apart
    out.push_back(static_cast<sim::Time>(t));
  }
  return out;
}

std::vector<std::vector<WorkerArrival>> partition_arrivals(
    const std::vector<sim::Time>& times, int workers) {
  if (workers < 1) throw std::invalid_argument("need at least one worker");
  const auto n = static_cast<std::size_t>(workers);
  std::vector<std::vector<WorkerArrival>> out(n);
  for (auto& w : out) w.reserve(times.size() / n + 1);
  for (std::size_t op = 0; op < times.size(); ++op) {
    out[op % n].push_back(WorkerArrival{op, times[op]});
  }
  return out;
}

}  // namespace sbq::service
