// Differential divergence bisection self-test (docs/replay.md): the
// bisector run against a fault-free vs fault-injected pair (a known
// schedule split: injected aborts retry or degrade TxCAS calls the other
// side commits) must report a divergence, localize the same first
// divergent (time, seq) coordinate on every invocation, and report no
// divergence for an identical-config pair.
#include <gtest/gtest.h>

#include <cstdint>

#include "replay/divergence.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq::bench {
namespace {

sim::MachineConfig side_config(double fault_rate) {
  sim::MachineConfig mcfg;
  mcfg.cores = 8;
  mcfg.fault_plan = fault_plan(fault_rate, /*seed=*/1, /*jitter=*/0);
  return mcfg;
}

constexpr double kFaultFree = 0.0;
constexpr double kFaulty = 0.05;

WorkloadSpec contended_spec() {
  WorkloadSpec spec;
  spec.kind = Workload::kMixed;
  spec.producers = 4;
  spec.consumers = 4;
  spec.ops_per_thread = 50;
  spec.seed = 17;
  return spec;
}

replay::ObservedRunFn make_runner(const sim::MachineConfig& mcfg,
                                  const WorkloadSpec& spec) {
  return [mcfg, spec](sim::Interconnect::SendObserverFn fn, void* ctx) {
    sim::Machine m(mcfg);
    m.interconnect().set_send_observer(fn, ctx);
    with_queue(QueueKind::kSbqHtm, m, spec, [&](auto& q, int offset) {
      return run_spec(m, q, spec, offset);
    });
  };
}

TEST(Divergence, IdenticalConfigsProduceIdenticalStreams) {
  const WorkloadSpec spec = contended_spec();
  const replay::DivergenceReport report = replay::find_divergence(
      make_runner(side_config(kFaultFree), spec),
      make_runner(side_config(kFaultFree), spec),
      /*window=*/256);
  EXPECT_FALSE(report.diverged);
  EXPECT_GT(report.total_a, 0u);
  EXPECT_EQ(report.total_a, report.total_b);
}

TEST(Divergence, FaultFreeVsFaultyLocalizedDeterministically) {
  const WorkloadSpec spec = contended_spec();
  auto bisect = [&] {
    return replay::find_divergence(make_runner(side_config(kFaultFree), spec),
                                   make_runner(side_config(kFaulty), spec),
                                   /*window=*/256);
  };
  const replay::DivergenceReport first = bisect();
  ASSERT_TRUE(first.diverged);
  EXPECT_FALSE(first.prefix_only);
  // The divergent messages really differ, and the context dumps carry the
  // DebugRing framing the CLI prints.
  EXPECT_FALSE(first.a == first.b);
  EXPECT_NE(first.context_a.find("interconnect messages"), std::string::npos);
  EXPECT_NE(first.context_b.find("interconnect messages"), std::string::npos);

  // Acceptance criterion: two consecutive bisections of the same pair agree
  // on the first divergent (time, seq) coordinate exactly.
  const replay::DivergenceReport second = bisect();
  ASSERT_TRUE(second.diverged);
  EXPECT_EQ(first.seq, second.seq);
  EXPECT_EQ(first.a.time, second.a.time);
  EXPECT_EQ(first.b.time, second.b.time);
  EXPECT_TRUE(first.a == second.a);
  EXPECT_TRUE(first.b == second.b);
  EXPECT_EQ(replay::format_divergence(first),
            replay::format_divergence(second));
}

TEST(Divergence, WindowSizeDoesNotMoveTheCoordinate) {
  const WorkloadSpec spec = contended_spec();
  auto bisect = [&](std::uint64_t window) {
    return replay::find_divergence(make_runner(side_config(kFaultFree), spec),
                                   make_runner(side_config(kFaulty), spec),
                                   window);
  };
  const replay::DivergenceReport small = bisect(64);
  const replay::DivergenceReport large = bisect(4096);
  ASSERT_TRUE(small.diverged);
  ASSERT_TRUE(large.diverged);
  EXPECT_EQ(small.seq, large.seq);
  EXPECT_TRUE(small.a == large.a);
  EXPECT_TRUE(small.b == large.b);
}

}  // namespace
}  // namespace sbq::bench
