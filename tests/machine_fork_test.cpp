// Checkpoint/fork regressions: a sweep repeat forked from a warmed
// Machine::snapshot must replay byte-identically to cold-starting the same
// cell (prefill + measure on a fresh machine), for every queue and for
// every workload shape the figure drivers sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "benchsupport/metrics_json.hpp"
#include "sim/machine.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq::bench {
namespace {

constexpr std::uint64_t kPrefillSeed = 99;

WorkloadSpec consumer_only_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.kind = Workload::kConsumerOnly;
  spec.producers = 3;
  spec.consumers = 3;
  spec.ops_per_thread = 40;
  spec.seed = seed;
  spec.prefill_seed = kPrefillSeed;
  return spec;
}

WorkloadSpec mixed_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.kind = Workload::kMixed;
  spec.producers = 2;
  spec.consumers = 2;
  spec.ops_per_thread = 40;
  spec.prefill = 40;
  spec.seed = seed;
  spec.prefill_seed = kPrefillSeed;
  return spec;
}

// Byte-identical means *everything* observable matches: op counts, the
// bit-exact latency doubles, the simulated clock, and the full machine
// counter snapshot (serialized so any new counter is covered by default).
void expect_identical(const SimRunResult& a, const SimRunResult& b) {
  EXPECT_EQ(a.enq_ops, b.enq_ops);
  EXPECT_EQ(a.deq_ops, b.deq_ops);
  EXPECT_EQ(a.enq_latency_cycles, b.enq_latency_cycles);
  EXPECT_EQ(a.deq_latency_cycles, b.deq_latency_cycles);
  EXPECT_EQ(a.duration_cycles, b.duration_cycles);
  EXPECT_EQ(metrics_to_json(a.metrics).dump(), metrics_to_json(b.metrics).dump());
}

class MachineForkAllQueues : public ::testing::TestWithParam<QueueKind> {};

TEST_P(MachineForkAllQueues, ConsumerOnlyForkMatchesColdStart) {
  const QueueKind kind = GetParam();
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  const WarmedWorkload warmed(kind, mcfg, consumer_only_spec(5));
  for (std::uint64_t seed : {5, 6, 7}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const WorkloadSpec spec = consumer_only_spec(seed);
    expect_identical(warmed.run_repeat(spec),
                     run_queue_workload(kind, mcfg, spec));
  }
}

TEST_P(MachineForkAllQueues, MixedTwoSocketForkMatchesColdStart) {
  const QueueKind kind = GetParam();
  sim::MachineConfig mcfg;
  mcfg.cores = 4;
  mcfg.sockets = 2;
  const WarmedWorkload warmed(kind, mcfg, mixed_spec(11));
  for (std::uint64_t seed : {11, 12}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const WorkloadSpec spec = mixed_spec(seed);
    expect_identical(warmed.run_repeat(spec),
                     run_queue_workload(kind, mcfg, spec));
  }
}

TEST_P(MachineForkAllQueues, LinkInterconnectForkMatchesColdStart) {
  // The link model adds per-link busy horizons to the schedule-visible
  // state; the snapshot must carry them.
  const QueueKind kind = GetParam();
  sim::MachineConfig mcfg;
  mcfg.cores = 4;
  mcfg.sockets = 2;
  mcfg.interconnect_model = sim::InterconnectModel::kLink;
  const WarmedWorkload warmed(kind, mcfg, mixed_spec(3));
  const WorkloadSpec spec = mixed_spec(4);
  expect_identical(warmed.run_repeat(spec),
                   run_queue_workload(kind, mcfg, spec));
}

INSTANTIATE_TEST_SUITE_P(AllQueues, MachineForkAllQueues,
                         ::testing::ValuesIn(evaluated_queue_kinds()),
                         [](const auto& info) {
                           std::string name = queue_kind_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(MachineFork, RepeatedForksFromOneSnapshotAreIndependent) {
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  const WarmedWorkload warmed(QueueKind::kSbqHtm, mcfg, consumer_only_spec(5));
  const WorkloadSpec spec = consumer_only_spec(8);
  const SimRunResult first = warmed.run_repeat(spec);
  // A second fork of the same seed sees pristine snapshot state, not
  // leftovers from the first fork's run.
  expect_identical(first, warmed.run_repeat(spec));
}

TEST(MachineFork, SnapshotRestoresClockAndCounters) {
  sim::MachineConfig mcfg;
  mcfg.cores = 2;
  sim::Machine m(mcfg);
  const sim::Addr a = m.alloc();
  m.spawn([](sim::Machine& m, sim::Addr a) -> sim::Task<void> {
    co_await m.core(0).store(a, 7);
    co_await m.core(1).load(a);
  }(m, a));
  m.run();
  const sim::MachineSnapshot snap = m.snapshot();
  auto fork = sim::Machine::fork(snap);
  EXPECT_EQ(fork->engine().now(), m.engine().now());
  EXPECT_EQ(fork->metrics().messages, m.metrics().messages);
  // The fork continues from the warmed coherence state: core 1 still holds
  // the line, so a repeat load is a cache hit with no new traffic.
  const std::uint64_t msgs_before = fork->metrics().messages;
  fork->spawn([](sim::Machine& m, sim::Addr a) -> sim::Task<void> {
    const sim::Value v = co_await m.core(1).load(a);
    EXPECT_EQ(v, 7);
  }(*fork, a));
  fork->run();
  EXPECT_EQ(fork->metrics().messages, msgs_before);
}

TEST(MachineFork, InvariantCheckerPassesOnMixedTwoSocketRun) {
  // The fault-free counterpart of sim_fault_test's checked runs: 8 cores on
  // 2 sockets, producers and consumers together, the SWMR checker after
  // every delivered message. Every queue must complete without tripping it.
  sim::MachineConfig mcfg;
  mcfg.cores = 8;
  mcfg.sockets = 2;
  mcfg.check_invariants = true;
  WorkloadSpec spec;
  spec.kind = Workload::kMixed;
  spec.producers = 4;
  spec.consumers = 4;
  spec.ops_per_thread = 25;
  spec.prefill = 16;
  spec.seed = 7;
  for (QueueKind kind : evaluated_queue_kinds()) {
    SCOPED_TRACE(queue_kind_name(kind));
    EXPECT_GT(run_queue_workload(kind, mcfg, spec).enq_ops, 0u);
  }
}

}  // namespace
}  // namespace sbq::bench
