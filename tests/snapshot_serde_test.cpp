// Snapshot serialization regressions (sim/serialize):
//   1. a machine forked from an encode→decode round-trip of a warmed
//      snapshot replays the measured phase byte-identically to a cold
//      start, for every evaluated queue;
//   2. truncated / corrupted / stale-version / foreign-key blobs, and line
//      tables with slots no FlatMap can hold, are rejected by decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchsupport/metrics_json.hpp"
#include "sim/machine.hpp"
#include "sim/serialize.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq::bench {
namespace {

constexpr std::uint64_t kBlobKey = 0x5eed5eed5eed5eedULL;

WorkloadSpec consumer_only_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.kind = Workload::kConsumerOnly;
  spec.producers = 3;
  spec.consumers = 3;
  spec.ops_per_thread = 40;
  spec.seed = seed;
  spec.prefill_seed = 99;
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
  spec.prefill_seed = 99;
  return spec;
}

void expect_identical(const SimRunResult& a, const SimRunResult& b) {
  EXPECT_EQ(a.enq_ops, b.enq_ops);
  EXPECT_EQ(a.deq_ops, b.deq_ops);
  EXPECT_EQ(a.enq_latency_cycles, b.enq_latency_cycles);
  EXPECT_EQ(a.deq_latency_cycles, b.deq_latency_cycles);
  EXPECT_EQ(a.duration_cycles, b.duration_cycles);
  EXPECT_EQ(metrics_to_json(a.metrics).dump(), metrics_to_json(b.metrics).dump());
}

// Warm a fresh machine (queue build + prefill), serialize it together with
// the queue's host words, decode the blob, fork a machine from the decoded
// snapshot, rebuild the queue from the decoded words, and run the measured
// phase there.
SimRunResult run_via_serde(QueueKind kind, const sim::MachineConfig& mcfg,
                           const WorkloadSpec& spec) {
  sim::Machine m(mcfg);
  return with_queue(kind, m, spec, [&](auto& q, int) {
    prefill_spec(m, q, spec);
    std::vector<std::uint64_t> words;
    q.save_host_state(words);
    const std::vector<std::uint8_t> blob =
        sim::encode_snapshot_blob(m.snapshot(), words, kBlobKey);
    EXPECT_FALSE(blob.empty());
    sim::MachineSnapshot snap;
    std::vector<std::uint64_t> dwords;
    EXPECT_TRUE(sim::decode_snapshot_blob(blob, kBlobKey, snap, dwords));
    auto fork = sim::Machine::fork(snap);
    const simq::HostWords hw{dwords.data(), dwords.size()};
    return with_queue(
        kind, *fork, spec,
        [&](auto& q2, int offset) { return measure_spec(*fork, q2, spec, offset); },
        &hw);
  });
}

class SnapshotSerdeAllQueues : public ::testing::TestWithParam<QueueKind> {};

TEST_P(SnapshotSerdeAllQueues, ConsumerOnlyRoundTripMatchesColdStart) {
  const QueueKind kind = GetParam();
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  const WorkloadSpec spec = consumer_only_spec(5);
  expect_identical(run_via_serde(kind, mcfg, spec),
                   run_queue_workload(kind, mcfg, spec));
}

TEST_P(SnapshotSerdeAllQueues, MixedTwoSocketRoundTripMatchesColdStart) {
  const QueueKind kind = GetParam();
  sim::MachineConfig mcfg;
  mcfg.cores = 4;
  mcfg.sockets = 2;
  const WorkloadSpec spec = mixed_spec(11);
  expect_identical(run_via_serde(kind, mcfg, spec),
                   run_queue_workload(kind, mcfg, spec));
}

INSTANTIATE_TEST_SUITE_P(AllQueues, SnapshotSerdeAllQueues,
                         ::testing::ValuesIn(evaluated_queue_kinds()),
                         [](const auto& info) {
                           std::string name = queue_kind_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// One warmed SBQ blob, reused by every rejection case below.
std::vector<std::uint8_t> make_valid_blob(std::uint64_t key) {
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  const WorkloadSpec spec = consumer_only_spec(5);
  sim::Machine m(mcfg);
  return with_queue(QueueKind::kSbqHtm, m, spec, [&](auto& q, int) {
    prefill_spec(m, q, spec);
    std::vector<std::uint64_t> words;
    q.save_host_state(words);
    return sim::encode_snapshot_blob(m.snapshot(), words, key);
  });
}

// Rewrite the trailing FNV-1a checksum over the edited body, so an edit
// reaches the version check and the section decoders instead of failing
// the checksum.
void reseal(std::vector<std::uint8_t>& blob) {
  const std::size_t body = blob.size() - 8;
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < body; ++i) {
    h ^= blob[i];
    h *= 1099511628211ULL;
  }
  for (int i = 0; i < 8; ++i) {
    blob[body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(h >> (8 * i));
  }
}

bool decodes(const std::vector<std::uint8_t>& blob) {
  sim::MachineSnapshot snap;
  std::vector<std::uint64_t> words;
  bool ok = true;
  EXPECT_NO_THROW(ok = sim::decode_snapshot_blob(blob, kBlobKey, snap, words));
  return ok;
}

TEST(SnapshotSerdeReject, TruncatedBlobs) {
  const std::vector<std::uint8_t> blob = make_valid_blob(kBlobKey);
  ASSERT_FALSE(blob.empty());
  sim::MachineSnapshot snap;
  std::vector<std::uint64_t> words;
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{4}, blob.size() / 2, blob.size() - 1}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + keep);
    EXPECT_FALSE(sim::decode_snapshot_blob(cut, kBlobKey, snap, words));
  }
}

TEST(SnapshotSerdeReject, CorruptedBytes) {
  const std::vector<std::uint8_t> blob = make_valid_blob(kBlobKey);
  ASSERT_FALSE(blob.empty());
  sim::MachineSnapshot snap;
  std::vector<std::uint64_t> words;
  // A flip anywhere — magic, header, section payload, checksum — must be
  // caught (the trailing FNV checksum covers every preceding byte).
  for (std::size_t pos : {std::size_t{0}, std::size_t{9}, blob.size() / 2,
                          blob.size() - 1}) {
    SCOPED_TRACE("flip at " + std::to_string(pos));
    std::vector<std::uint8_t> bad = blob;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(sim::decode_snapshot_blob(bad, kBlobKey, snap, words));
  }
}

TEST(SnapshotSerdeReject, StaleSchemaVersion) {
  const std::vector<std::uint8_t> blob = make_valid_blob(kBlobKey);
  ASSERT_GE(blob.size(), 8u);
  // Bytes [4,8) hold the little-endian schema version; a blob from the
  // previous schema (or a future one) must be refused rather than misread,
  // even with a valid checksum.
  for (const std::uint32_t version :
       {sim::kSnapshotSchemaVersion - 1, sim::kSnapshotSchemaVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::vector<std::uint8_t> bad = blob;
    for (int i = 0; i < 4; ++i) {
      bad[4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(version >> (8 * i));
    }
    reseal(bad);
    EXPECT_FALSE(decodes(bad));
  }
}

// A line table slot is one state byte (0 empty, 1 full), then, when full,
// its key and record. Mark one record's cached value, which the record
// encodes first, so the test can find its slot: state byte, u64 key, u64
// cached value.
TEST(SnapshotSerdeReject, LineTableSlotsNoFlatMapHolds) {
  constexpr std::uint64_t kMarker = 0x6d61726b65724c4eULL;
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  const WorkloadSpec spec = consumer_only_spec(5);
  sim::Machine m(mcfg);
  const std::vector<std::uint8_t> blob =
      with_queue(QueueKind::kSbqHtm, m, spec, [&](auto& q, int) {
        prefill_spec(m, q, spec);
        std::vector<std::uint64_t> words;
        q.save_host_state(words);
        sim::MachineSnapshot snap = m.snapshot();
        bool marked = false;
        for (auto& [addr, line] : snap.lines) {
          if (!line.cores.any_valid()) continue;
          line.value = kMarker;
          marked = true;
          break;
        }
        EXPECT_TRUE(marked) << "no core holds a line";
        return sim::encode_snapshot_blob(snap, words, kBlobKey);
      });
  std::vector<std::uint8_t> needle(8);
  for (int i = 0; i < 8; ++i) {
    needle[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(kMarker >> (8 * i));
  }
  const auto at = std::search(blob.begin(), blob.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(at, blob.end());
  ASSERT_EQ(std::search(at + 1, blob.end(), needle.begin(), needle.end()),
            blob.end());
  const auto value_pos = static_cast<std::size_t>(at - blob.begin());
  ASSERT_GE(value_pos, 9u);
  const std::size_t state_pos = value_pos - 9;
  const std::size_t key_pos = value_pos - 8;
  ASSERT_EQ(blob[state_pos], 1u);
  EXPECT_TRUE(decodes(blob));

  // State byte 2 was the tombstone of schema 7; no slot carries it now.
  std::vector<std::uint8_t> tomb = blob;
  tomb[state_pos] = 2;
  reseal(tomb);
  EXPECT_FALSE(decodes(tomb));

  // Key 0 marks an empty slot, so a full slot cannot hold it.
  std::vector<std::uint8_t> null_key = blob;
  std::fill_n(null_key.begin() + static_cast<std::ptrdiff_t>(key_pos), 8, 0);
  reseal(null_key);
  EXPECT_FALSE(decodes(null_key));
}

TEST(SnapshotSerdeReject, ForeignKey) {
  const std::vector<std::uint8_t> blob = make_valid_blob(kBlobKey);
  sim::MachineSnapshot snap;
  std::vector<std::uint64_t> words;
  EXPECT_FALSE(sim::decode_snapshot_blob(blob, kBlobKey + 1, snap, words));
  EXPECT_TRUE(sim::decode_snapshot_blob(blob, kBlobKey, snap, words));
}

// Contention-policy snapshot coverage (docs/architecture.md "Contention
// policy layer"): the per-core policy State (jitter stream position +
// failure level) rides in every snapshot, so adaptive-policy forks must
// replay byte-identically; the config digest keys the policy params (two
// configs that differ only in policy never share a digest); and a blob
// claiming an unknown policy kind is refused instead of misinterpreted.
TEST(SnapshotSerdePolicy, AdaptiveBackoffRoundTripMatchesColdStart) {
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  mcfg.cas_policy.kind = ContentionPolicyKind::kAdaptiveBackoff;
  mcfg.cas_policy.seed = 17;
  const WorkloadSpec spec = consumer_only_spec(5);
  expect_identical(run_via_serde(QueueKind::kSbqHtm, mcfg, spec),
                   run_queue_workload(QueueKind::kSbqHtm, mcfg, spec));
}

TEST(SnapshotSerdePolicy, DigestKeysPolicyParams) {
  sim::MachineConfig base;
  base.cores = 3;
  const std::uint64_t d0 = sim::machine_config_digest(base);

  sim::MachineConfig kind = base;
  kind.cas_policy.kind = ContentionPolicyKind::kAdaptiveBackoff;
  EXPECT_NE(sim::machine_config_digest(kind), d0);

  sim::MachineConfig seed = kind;
  seed.cas_policy.seed = 2;
  EXPECT_NE(sim::machine_config_digest(seed), sim::machine_config_digest(kind));

  sim::MachineConfig ladder = kind;
  ladder.cas_policy.backoff_ceil_mult = 4;
  EXPECT_NE(sim::machine_config_digest(ladder),
            sim::machine_config_digest(kind));
}

TEST(SnapshotSerdePolicy, UnknownPolicyKindRejected) {
  // 2 is a retired policy kind (the fallback-budget policy, schema <= 3): a
  // blob naming it must not decode into some other policy.
  for (const int raw : {kContentionPolicyKindCount, 2, 255}) {
    SCOPED_TRACE("kind " + std::to_string(raw));
    sim::MachineConfig mcfg;
    mcfg.cores = 2;
    mcfg.cas_policy.kind = static_cast<ContentionPolicyKind>(raw);
    sim::Machine m(mcfg);
    const std::vector<std::uint8_t> blob =
        sim::encode_snapshot_blob(m.snapshot(), {}, kBlobKey);
    ASSERT_FALSE(blob.empty());
    sim::MachineSnapshot snap;
    std::vector<std::uint64_t> words;
    EXPECT_FALSE(sim::decode_snapshot_blob(blob, kBlobKey, snap, words));
  }
}

TEST(SnapshotSerdeReject, HostWordsPastEndThrow) {
  const std::uint64_t w[2] = {1, 2};
  const simq::HostWords hw{w, 2};
  EXPECT_EQ(hw.at(1), 2u);
  EXPECT_THROW(hw.at(2), std::out_of_range);
}

}  // namespace
}  // namespace sbq::bench
