// Serial-vs-sharded equivalence for the partitioned machine: every
// evaluated queue, run at 2 sockets with {2, 4} machine threads, must
// produce results and metrics identical to the serial twin (same
// dir_slices/sockets, machine_threads=1) — the conservative-window merge
// fixes the event order, so who runs the slices must not be observable.
// Also covers the sharded machine's refusal surface: snapshot() and
// check_invariants are serial-only, while the serial twin snapshots and
// forks byte-identically.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchsupport/metrics_json.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq::bench {
namespace {

// The shard grid the ISSUE prescribes: 2 sockets, 4 directory slices (one
// per pair of cores), per-core arenas so mid-run allocation is slice-local.
sim::MachineConfig shard_config(int machine_threads) {
  sim::MachineConfig mcfg;
  mcfg.cores = 8;
  mcfg.sockets = 2;
  mcfg.dir_slices = 4;
  mcfg.alloc_arenas = true;
  mcfg.machine_threads = machine_threads;
  return mcfg;
}

// Mixed workload so both the enqueue and dequeue paths cross slices.
WorkloadSpec shard_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.kind = Workload::kMixed;
  spec.producers = 4;
  spec.consumers = 4;
  spec.ops_per_thread = 25;
  spec.prefill = 16;
  spec.seed = seed;
  return spec;
}

// The only legitimate differences between a sharded snapshot and its serial
// twin are the sharding-bookkeeping fields themselves; everything else —
// protocol/HTM/basket counters, message totals, event counts, final time —
// must match exactly. Normalize those fields away and compare the full
// serialized form so a new counter can't silently escape the check.
std::string normalized_metrics_dump(sim::MetricsSnapshot snap) {
  snap.machine_threads = 1;
  snap.per_slice_events.clear();
  return metrics_to_json(snap).dump(-1);
}

void expect_same_cell(const SimRunResult& serial, const SimRunResult& sharded,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(serial.enq_ops, sharded.enq_ops);
  EXPECT_EQ(serial.deq_ops, sharded.deq_ops);
  // Deterministic simulation: the derived doubles must be bit-identical.
  EXPECT_EQ(serial.enq_latency_cycles, sharded.enq_latency_cycles);
  EXPECT_EQ(serial.deq_latency_cycles, sharded.deq_latency_cycles);
  EXPECT_EQ(serial.duration_cycles, sharded.duration_cycles);
  EXPECT_EQ(normalized_metrics_dump(serial.metrics),
            normalized_metrics_dump(sharded.metrics));
}

TEST(MachineShard, AllQueuesMatchSerialTwinAt2And4Threads) {
  for (QueueKind kind : evaluated_queue_kinds()) {
    const WorkloadSpec spec = shard_spec(/*seed=*/11);
    const SimRunResult serial =
        run_queue_workload(kind, shard_config(/*machine_threads=*/1), spec);
    ASSERT_GT(serial.enq_ops, 0u) << queue_kind_name(kind);
    for (int mt : {2, 4}) {
      const SimRunResult sharded =
          run_queue_workload(kind, shard_config(mt), spec);
      const std::string what =
          std::string(queue_kind_name(kind)) + " mt=" + std::to_string(mt);
      expect_same_cell(serial, sharded, what.c_str());
      // The sharded run must also *report* its sharding: thread count and
      // one event counter per slice, summing to the machine-wide total.
      EXPECT_EQ(sharded.metrics.machine_threads, mt) << what;
      ASSERT_EQ(sharded.metrics.per_slice_events.size(), 4u) << what;
      std::uint64_t sum = 0;
      for (std::uint64_t e : sharded.metrics.per_slice_events) sum += e;
      EXPECT_EQ(sum, sharded.metrics.events) << what;
    }
  }
}

TEST(MachineShard, ShardedRunIsDeterministic) {
  for (QueueKind kind : evaluated_queue_kinds()) {
    const WorkloadSpec spec = shard_spec(/*seed=*/23);
    const SimRunResult a = run_queue_workload(kind, shard_config(4), spec);
    const SimRunResult b = run_queue_workload(kind, shard_config(4), spec);
    expect_same_cell(a, b, queue_kind_name(kind));
    // Run-to-run, even the per-slice split must be stable.
    EXPECT_EQ(a.metrics.per_slice_events, b.metrics.per_slice_events)
        << queue_kind_name(kind);
  }
}

TEST(MachineShard, SnapshotRefusedWhenSharded) {
  const WorkloadSpec spec = shard_spec(5);
  sim::Machine m(shard_config(2));
  with_queue(QueueKind::kSbqHtm, m, spec, [&](auto& q, int offset) {
    return run_spec(m, q, spec, offset);
  });
  EXPECT_THROW(m.snapshot(), std::runtime_error);
}

TEST(MachineShard, SerialTwinForksByteIdenticallyToColdStart) {
  // The documented escape hatch for warm repeats under sharding: snapshot
  // the serial twin (machine_threads=1, same dir_slices) and fork from it.
  for (QueueKind kind : {QueueKind::kSbqHtm, QueueKind::kBqOriginal}) {
    const sim::MachineConfig mcfg = shard_config(/*machine_threads=*/1);
    const WorkloadSpec spec = shard_spec(/*seed=*/31);
    const SimRunResult cold = run_queue_workload(kind, mcfg, spec);
    const WarmedWorkload warmed(kind, mcfg, spec);
    const SimRunResult forked = warmed.run_repeat(spec);
    expect_same_cell(cold, forked, queue_kind_name(kind));
  }
}

TEST(MachineShard, CheckInvariantsRefusedShardedButChecksSerialTwin) {
  sim::MachineConfig mcfg = shard_config(/*machine_threads=*/2);
  mcfg.check_invariants = true;
  EXPECT_THROW(sim::Machine{mcfg}, std::runtime_error);
  // On the serial twin the checker walks every directory slice's line table
  // — a run with it enabled must complete without tripping.
  mcfg.machine_threads = 1;
  const SimRunResult checked =
      run_queue_workload(QueueKind::kSbqCas, mcfg, shard_spec(7));
  EXPECT_GT(checked.enq_ops, 0u);
}

TEST(MachineShard, TraceAndJitterRefusedWhenSharded) {
  sim::MachineConfig traced = shard_config(/*machine_threads=*/2);
  traced.record_trace = true;
  EXPECT_THROW(sim::Machine{traced}, std::runtime_error);

  sim::MachineConfig jittered = shard_config(/*machine_threads=*/2);
  jittered.fault_plan.enabled = true;
  jittered.fault_plan.message_jitter_rate = 0.5;
  jittered.fault_plan.max_message_jitter = 3;
  EXPECT_THROW(sim::Machine{jittered}, std::runtime_error);
}

}  // namespace
}  // namespace sbq::bench
