// Host calibration for spin_for_ns (common/backoff.hpp).
//
// The paper's §4.1/§4.2 delays are specified in time, but a transaction
// cannot read a clock, so they are spent as cpu_relax iterations. A PAUSE
// costs a different time on every x86 part (64 of them made the paper's
// 270 ns on its Broadwell; one takes 15-24 ns on a Sapphire Rapids part),
// so the conversion factor is measured here, once per process and before
// main: never inside a queue constructor, a timed span or a transaction.
// The trials take about 85 us at 17 ns per PAUSE. A binary that never
// spins does not link this file and skips the measurement.
#include <algorithm>

#include "common/backoff.hpp"
#include "common/timing.hpp"

namespace sbq {
namespace detail {

double g_ns_per_relax = 0.0;

namespace {

constexpr int kTrials = 5;
constexpr int kRelaxPerTrial = 1000;
// Floor for hosts whose cpu_relax is (nearly) free, e.g. an empty asm
// statement: keeps the conversion finite.
constexpr double kMinNsPerRelax = 0.05;

double measure_ns_per_relax() noexcept {
  double best = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    const StopWatch sw;
    spin_iterations(kRelaxPerTrial);
    const double ns = sw.elapsed_ns();
    if (t == 0 || ns < best) best = ns;
  }
  return std::max(best / kRelaxPerTrial, kMinNsPerRelax);
}

// Priority 101, the first one open to programs, so the value is set before
// any static constructor of default priority could spin.
__attribute__((constructor(101))) void calibrate_ns_per_relax() noexcept {
  g_ns_per_relax = measure_ns_per_relax();
}

}  // namespace
}  // namespace detail
}  // namespace sbq
