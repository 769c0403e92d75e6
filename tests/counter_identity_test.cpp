// Counter identities at quiescence: every queue, every workload shape,
// with and without fault injection, at 4 and 16 threads.
//
// The registry (sim::Stats) counts each protocol and TxCAS event once, in
// the acting core's row; machine-wide totals are the rows summed. What
// still relates two stored counts must hold once every request is
// answered and every call resolved:
//   * Σ retry_histogram == calls, and successes <= calls, per core;
//   * read_conflicts <= aborts[conflict], per core;
//   * the directory's wb_accepted + wb_dropped == Σ wb_data;
//   * MetricsSnapshot::faults.injected_* == the injected abort causes.
// And a blob whose per-core table does not have one row per configured
// core is refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/machine.hpp"
#include "sim/serialize.hpp"
#include "sim/stats.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq::bench {
namespace {

using sim::AbortCause;

std::uint64_t aborts(const sim::HtmCounters& h, AbortCause cause) {
  return h.aborts[static_cast<std::size_t>(cause)];
}

WorkloadSpec spec_for(Workload shape, int threads) {
  WorkloadSpec spec;
  spec.kind = shape;
  spec.ops_per_thread = 20;
  spec.seed = 5;
  spec.prefill_seed = 9;
  switch (shape) {
    case Workload::kProducerOnly:
      spec.producers = threads;
      spec.consumers = 0;
      break;
    case Workload::kConsumerOnly:
      spec.producers = threads;
      spec.consumers = threads;
      break;
    case Workload::kMixed:
      spec.producers = threads / 2;
      spec.consumers = threads / 2;
      spec.prefill = static_cast<simq::Value>(threads / 2) * 10;
      break;
  }
  return spec;
}

const char* shape_name(Workload shape) {
  switch (shape) {
    case Workload::kProducerOnly: return "producer";
    case Workload::kConsumerOnly: return "consumer";
    case Workload::kMixed: return "mixed";
  }
  return "?";
}

// (queue, shape, fault injection on, threads)
using Cell = std::tuple<QueueKind, Workload, bool, int>;

std::string cell_name(const Cell& cell) {
  const auto [kind, shape, faults, threads] = cell;
  std::string name = queue_kind_name(kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + shape_name(shape) + (faults ? "_faults_" : "_") +
         std::to_string(threads);
}

class CounterIdentity : public ::testing::TestWithParam<Cell> {};

TEST_P(CounterIdentity, StoredCountsAgreeAtQuiescence) {
  const auto [kind, shape, faults, threads] = GetParam();
  sim::MachineConfig mcfg;
  mcfg.cores = threads;
  mcfg.fault_plan = fault_plan(faults ? 0.05 : 0.0, 3, faults ? 7 : 0);
  sim::Machine m(mcfg);
  const WorkloadSpec spec = spec_for(shape, threads);
  with_queue(kind, m, spec,
             [&](auto& q, int offset) { run_spec(m, q, spec, offset); });

  const sim::Stats& s = m.stats();
  for (int c = 0; c < threads; ++c) {
    SCOPED_TRACE("core " + std::to_string(c));
    const sim::HtmCounters& h = s.core_htm(c);
    std::uint64_t resolved = 0;
    for (const std::uint64_t n : h.retry_histogram) resolved += n;
    EXPECT_EQ(resolved, h.calls);
    EXPECT_LE(h.successes, h.calls);
    EXPECT_LE(h.read_conflicts, aborts(h, AbortCause::kConflict));
  }

  const sim::Directory::Stats& d = m.directory().stats();
  EXPECT_EQ(d.wb_accepted + d.wb_dropped, s.protocol().wb_data);

  const sim::MetricsSnapshot snap = m.metrics();
  EXPECT_EQ(snap.faults.injected_capacity,
            faults ? aborts(snap.htm, AbortCause::kCapacity) : 0);
  EXPECT_EQ(snap.faults.injected_interrupt,
            faults ? aborts(snap.htm, AbortCause::kInterrupt) : 0);
  EXPECT_EQ(snap.faults.injected_spurious,
            faults ? aborts(snap.htm, AbortCause::kSpurious) : 0);
  if (faults && kind == QueueKind::kSbqHtm) {
    EXPECT_GT(snap.faults.injected_total(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, CounterIdentity,
    ::testing::Combine(::testing::ValuesIn(evaluated_queue_kinds()),
                       ::testing::Values(Workload::kProducerOnly,
                                         Workload::kConsumerOnly,
                                         Workload::kMixed),
                       ::testing::Bool(), ::testing::Values(4, 16)),
    [](const auto& info) { return cell_name(info.param); });

// The per-core table's length comes from the blob; decode refuses one
// that differs from the config's core count, since the forked machine's
// cores would report into rows that are missing or belong to no core.
TEST(CounterIdentity, DecodeRefusesPerCoreTableOfAnotherLength) {
  constexpr std::uint64_t kKey = 0x5eed;
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  sim::Machine m(mcfg);
  const WorkloadSpec spec = spec_for(Workload::kConsumerOnly, 3);
  const sim::MachineSnapshot warmed =
      with_queue(QueueKind::kSbqHtm, m, spec, [&](auto& q, int) {
        prefill_spec(m, q, spec);
        return m.snapshot();
      });
  for (const int rows : {3, 0, 2, 4, 16}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    sim::MachineSnapshot snap = warmed;
    snap.stats = sim::Stats(rows);
    const std::vector<std::uint8_t> blob =
        sim::encode_snapshot_blob(snap, {}, kKey);
    ASSERT_FALSE(blob.empty());
    sim::MachineSnapshot decoded;
    std::vector<std::uint64_t> words;
    EXPECT_EQ(sim::decode_snapshot_blob(blob, kKey, decoded, words),
              rows == mcfg.cores);
  }
}

}  // namespace
}  // namespace sbq::bench
