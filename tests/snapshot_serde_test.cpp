// Snapshot serialization regressions (sim/serialize):
//   1. a machine forked from an encode→decode round-trip of a warmed
//      snapshot replays the measured phase byte-identically to a cold
//      start, for every evaluated queue;
//   2. truncated / corrupted / stale-version / foreign-key blobs, line
//      tables with slots no FlatMap can hold, line state of cores the
//      config lacks, u32 fields above UINT32_MAX and a stats-off flag are
//      rejected by decode;
//   3. the blob and config-digest bytes of fixed configs are pinned, so a
//      codec change that keeps the schema version cannot move them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
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
// snapshot, copy the warmed queue and rebind the copy to the fork, and run
// the measured phase there. The decoded host words must equal the saved
// ones.
SimRunResult run_via_serde(QueueKind kind, const sim::MachineConfig& mcfg,
                           const WorkloadSpec& spec) {
  sim::Machine m(mcfg);
  return with_queue(kind, m, spec, [&](auto& q, int offset) {
    prefill_spec(m, q, spec);
    std::vector<std::uint64_t> words;
    q.save_host_state(words);
    const std::vector<std::uint8_t> blob =
        sim::encode_snapshot_blob(m.snapshot(), words, kBlobKey);
    EXPECT_FALSE(blob.empty());
    sim::MachineSnapshot snap;
    std::vector<std::uint64_t> dwords;
    EXPECT_TRUE(sim::decode_snapshot_blob(blob, kBlobKey, snap, dwords));
    EXPECT_EQ(dwords, words);
    auto fork = sim::Machine::fork(snap);
    auto fq = q;
    fq.rebind(*fork);
    return measure_spec(*fork, fq, spec, offset);
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

// One warmed SBQ-HTM snapshot on 3 cores, edited by `edit` and then
// encoded: the base of every rejection case below.
template <typename Edit>
std::vector<std::uint8_t> edited_blob(Edit edit) {
  sim::MachineConfig mcfg;
  mcfg.cores = 3;
  const WorkloadSpec spec = consumer_only_spec(5);
  sim::Machine m(mcfg);
  return with_queue(QueueKind::kSbqHtm, m, spec, [&](auto& q, int) {
    prefill_spec(m, q, spec);
    std::vector<std::uint64_t> words;
    q.save_host_state(words);
    sim::MachineSnapshot snap = m.snapshot();
    edit(snap);
    return sim::encode_snapshot_blob(snap, words, kBlobKey);
  });
}

std::vector<std::uint8_t> make_valid_blob() {
  return edited_blob([](sim::MachineSnapshot&) {});
}

// A line some core holds a copy of.
sim::LineRecord& held_line(sim::MachineSnapshot& snap) {
  for (auto& [addr, line] : snap.lines) {
    if (line.cores.any_valid()) return line;
  }
  throw std::logic_error("no core holds a line");
}

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Rewrite the trailing FNV-1a checksum over the edited body, so an edit
// reaches the version check and the section decoders instead of failing
// the checksum.
void reseal(std::vector<std::uint8_t>& blob) {
  const std::size_t body = blob.size() - 8;
  const std::uint64_t h = fnv1a(blob.data(), body);
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
  const std::vector<std::uint8_t> blob = make_valid_blob();
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
  const std::vector<std::uint8_t> blob = make_valid_blob();
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
  const std::vector<std::uint8_t> blob = make_valid_blob();
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
  const std::vector<std::uint8_t> blob = edited_blob(
      [](sim::MachineSnapshot& snap) { held_line(snap).value = kMarker; });
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

// Line state no machine of the config can hold: an owner outside
// [-1, cores), or a sharer or core-state bit of a core id at or above
// `cores`. A machine forked from it would index its per-core tables (the
// interconnect's socket map) out of bounds.
TEST(SnapshotSerdeReject, LineStateOfCoresTheConfigLacks) {
  const auto with_owner = [](int owner) {
    return edited_blob(
        [owner](sim::MachineSnapshot& snap) { held_line(snap).owner = owner; });
  };
  EXPECT_TRUE(decodes(with_owner(-1)));
  EXPECT_TRUE(decodes(with_owner(2)));
  for (const int owner : {3, 7, -2, -5}) {
    SCOPED_TRACE("owner " + std::to_string(owner));
    EXPECT_FALSE(decodes(with_owner(owner)));
  }

  const auto with_sharer = [](int core) {
    return edited_blob([core](sim::MachineSnapshot& snap) {
      held_line(snap).sharers.insert(core);
    });
  };
  EXPECT_TRUE(decodes(with_sharer(2)));
  for (const int core : {3, 43, 47, 50, 63}) {
    SCOPED_TRACE("sharer " + std::to_string(core));
    EXPECT_FALSE(decodes(with_sharer(core)));
  }

  // Two state bits per core: core 3's state is bits 6 and 7.
  const auto with_core_state = [](int core, sim::LineState state) {
    return edited_blob([core, state](sim::MachineSnapshot& snap) {
      held_line(snap).cores.set(core, state);
    });
  };
  EXPECT_TRUE(decodes(with_core_state(2, sim::LineState::kShared)));
  for (const int core : {3, 21, 31}) {
    SCOPED_TRACE("core state " + std::to_string(core));
    EXPECT_FALSE(decodes(with_core_state(core, sim::LineState::kShared)));
    EXPECT_FALSE(decodes(with_core_state(core, sim::LineState::kOwned)));
  }
}

// Pinned bytes (schema 13): the FNV-1a digest of a whole blob and the
// machine_config_digest of its config, for a warmed 3- or 4-core SBQ-HTM
// machine under each config below. Any change to the encoding, or to
// what a run leaves in the snapshot, moves a digest; such a change must
// bump kSnapshotSchemaVersion and re-pin these values.
struct PinnedBytes {
  const char* name;
  sim::MachineConfig cfg;
  std::uint64_t blob_digest;
  std::uint64_t config_digest;
};

std::vector<PinnedBytes> pinned_bytes() {
  sim::MachineConfig stats_on;
  stats_on.cores = 3;

  // Two linked sockets, rate faults and message jitter.
  sim::MachineConfig faults;
  faults.cores = 4;
  faults.sockets = 2;
  faults.interconnect_model = sim::InterconnectModel::kLink;
  faults.fault_plan = fault_plan(0.05, 7, 30);

  return {
      {"stats_on", stats_on, 0xeedb00828f50fe54ULL,
       0x83ef3d2879b2c5adULL},
      {"faults", faults, 0x71af16b82941d291ULL,
       0x2bb3cadca2e8dba1ULL},
  };
}

// The stats section opens with its tag (6) and the has_stats byte, then the
// basket counters. Since schema 10 the blob keeps the byte of the deleted
// stats-off mode; a blob whose byte is 0 is refused, not misread.
TEST(SnapshotSerdeReject, StatsOffFlag) {
  sim::BasketCounters counters;
  const std::vector<std::uint8_t> blob =
      edited_blob([&](sim::MachineSnapshot& snap) {
        counters = snap.stats.basket();
      });
  std::vector<std::uint8_t> needle{6, 1};
  for (const std::uint64_t v : {counters.appends_won, counters.appends_lost}) {
    for (int i = 0; i < 8; ++i) {
      needle.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  const auto at = std::search(blob.begin(), blob.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(at, blob.end());
  ASSERT_EQ(std::search(at + 1, blob.end(), needle.begin(), needle.end()),
            blob.end());
  EXPECT_TRUE(decodes(blob));
  std::vector<std::uint8_t> off = blob;
  off[static_cast<std::size_t>(at - blob.begin()) + 1] = 0;
  reseal(off);
  EXPECT_FALSE(decodes(off));
}

TEST(SnapshotSerdeBytes, PinnedBlobAndConfigDigests) {
  EXPECT_EQ(sim::kSnapshotSchemaVersion, 13u);
  for (const PinnedBytes& pin : pinned_bytes()) {
    SCOPED_TRACE(pin.name);
    const WorkloadSpec spec = consumer_only_spec(5);
    sim::Machine m(pin.cfg);
    const std::vector<std::uint8_t> blob =
        with_queue(QueueKind::kSbqHtm, m, spec, [&](auto& q, int) {
          prefill_spec(m, q, spec);
          std::vector<std::uint64_t> words;
          q.save_host_state(words);
          return sim::encode_snapshot_blob(m.snapshot(), words, kBlobKey);
        });
    ASSERT_FALSE(blob.empty());
    if (pin.cfg.fault_plan.enabled) {
      EXPECT_GT(m.metrics().faults.jittered_messages, 0u);
    }
    EXPECT_TRUE(decodes(blob));
    EXPECT_EQ(fnv1a(blob.data(), blob.size()), pin.blob_digest);
    EXPECT_EQ(sim::machine_config_digest(pin.cfg), pin.config_digest);
  }
}

TEST(SnapshotSerdeReject, ForeignKey) {
  const std::vector<std::uint8_t> blob = make_valid_blob();
  sim::MachineSnapshot snap;
  std::vector<std::uint64_t> words;
  EXPECT_FALSE(sim::decode_snapshot_blob(blob, kBlobKey + 1, snap, words));
  EXPECT_TRUE(sim::decode_snapshot_blob(blob, kBlobKey, snap, words));
}

}  // namespace
}  // namespace sbq::bench
