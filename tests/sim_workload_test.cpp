// Tests for the simulated workload drivers used by the figure benchmarks:
// op accounting, determinism under fixed seeds, and basic sanity of the
// producer-only / consumer-only / mixed runs.
#include <gtest/gtest.h>

#include "benchsupport/sim_workload.hpp"
#include "simqueue/sim_faa_queue.hpp"
#include "simqueue/sim_sbq.hpp"

namespace sbq::simq {
namespace {

WorkloadSpec spec_of(Workload kind, int producers, int consumers, Value ops,
                     std::uint64_t seed = 1) {
  WorkloadSpec spec;
  spec.kind = kind;
  spec.producers = producers;
  spec.consumers = consumers;
  spec.ops_per_thread = ops;
  spec.seed = seed;
  return spec;
}

sim::MachineConfig machine_for(int cores, int sockets = 1) {
  sim::MachineConfig cfg;
  cfg.cores = cores;
  cfg.sockets = sockets;
  return cfg;
}

TEST(SimWorkload, ProducerOnlyAccounting) {
  sim::Machine m(machine_for(4));
  SimFaaQueue q(m);
  const SimRunResult r =
      run_spec(m, q, spec_of(Workload::kProducerOnly, 4, 1, 50), 0);
  EXPECT_EQ(r.enq_ops, 200u);
  EXPECT_EQ(r.deq_ops, 0u);
  EXPECT_GT(r.enq_latency_cycles, 0.0);
  EXPECT_GT(r.duration_cycles, 0.0);
  EXPECT_GT(r.throughput_mops(0.4), 0.0);
}

TEST(SimWorkload, ConsumerOnlyDrainsPrefill) {
  sim::Machine m(machine_for(4));
  SimFaaQueue q(m);
  const SimRunResult r =
      run_spec(m, q, spec_of(Workload::kConsumerOnly, 4, 4, 50, /*seed=*/3),
               /*consumer_id_offset=*/4);
  EXPECT_EQ(r.deq_ops, 200u);
  EXPECT_GT(r.deq_latency_cycles, 0.0);
}

TEST(SimWorkload, MixedRunsBothSides) {
  sim::Machine m(machine_for(8, 2));
  SimSbq q(m, {.enqueuers = 4, .dequeuers = 4});
  WorkloadSpec spec = spec_of(Workload::kMixed, 4, 4, 40);
  spec.prefill = 80;
  const SimRunResult r = run_spec(m, q, spec, 0);
  EXPECT_EQ(r.enq_ops, 160u);
  EXPECT_EQ(r.deq_ops, 160u);
  EXPECT_GT(r.enq_latency_cycles, 0.0);
  EXPECT_GT(r.deq_latency_cycles, 0.0);
}

TEST(SimWorkload, DeterministicUnderSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Machine m(machine_for(4));
    SimFaaQueue q(m);
    return run_spec(m, q, spec_of(Workload::kProducerOnly, 4, 1, 60, seed), 0);
  };
  const SimRunResult a = run_once(7);
  const SimRunResult b = run_once(7);
  const SimRunResult c = run_once(8);
  EXPECT_DOUBLE_EQ(a.enq_latency_cycles, b.enq_latency_cycles);
  EXPECT_DOUBLE_EQ(a.duration_cycles, b.duration_cycles);
  // A different seed shifts the jitter and thus the timing.
  EXPECT_NE(a.duration_cycles, c.duration_cycles);
}

TEST(SimWorkload, LatencyConversionHelpers) {
  SimRunResult r;
  r.enq_latency_cycles = 100;
  r.deq_latency_cycles = 50;
  r.enq_ops = 10;
  r.deq_ops = 10;
  r.duration_cycles = 1000;
  EXPECT_DOUBLE_EQ(r.enq_latency_ns(0.4), 40.0);
  EXPECT_DOUBLE_EQ(r.deq_latency_ns(0.4), 20.0);
  // 20 ops in 400 ns = 0.05 ops/ns = 50 Mops/s.
  EXPECT_DOUBLE_EQ(r.throughput_mops(0.4), 50.0);
}

TEST(SimWorkload, MoreProducersMoreWallTimeAtFixedPerThreadOps) {
  // The FAA queue's enqueue side is contended: with per-thread ops fixed,
  // latency (and thus wall time) must grow with the producer count.
  auto latency_at = [](int producers) {
    sim::Machine m(machine_for(producers));
    SimFaaQueue q(m);
    return run_spec(m, q, spec_of(Workload::kProducerOnly, producers, 1, 60), 0)
        .enq_latency_cycles;
  };
  EXPECT_GT(latency_at(8), 1.8 * latency_at(2));
}

}  // namespace
}  // namespace sbq::simq
