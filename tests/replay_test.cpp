// Op-level trace record/replay (docs/replay.md):
//   * codec round-trip + the full damage-rejection surface (truncation,
//     bit flips, foreign magic, stale version, trailing garbage) mirroring
//     snapshot_serde_test.cpp;
//   * recording is schedule-invisible — for every evaluated queue, a
//     recorded sim run's metrics are byte-identical to the plain run, and
//     replaying the trace under the recording config reproduces them again
//     with zero value mismatches;
//   * pinned digests of the recorded and replayed op traces;
//   * recorded histories satisfy the HSV linearizability checks (sim and
//     native sources), value conservation holds, and a deliberately
//     mutated trace fails the checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchsupport/metrics_json.hpp"
#include "replay/native_record.hpp"
#include "replay/op_trace.hpp"
#include "replay/sim_replay.hpp"
#include "sim_queue_bench_util.hpp"
#include "verify/history_checker.hpp"

namespace sbq::bench {
namespace {

sim::MachineConfig small_config(int cores) {
  sim::MachineConfig mcfg;
  mcfg.cores = cores;
  mcfg.collect_stats = true;
  return mcfg;
}

WorkloadSpec mixed_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.kind = Workload::kMixed;
  spec.producers = 2;
  spec.consumers = 2;
  spec.ops_per_thread = 20;
  spec.prefill = 0;  // unique values across the whole history
  spec.seed = seed;
  return spec;
}

void expect_same_run(const SimRunResult& a, const SimRunResult& b,
                     const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.enq_ops, b.enq_ops);
  EXPECT_EQ(a.deq_ops, b.deq_ops);
  EXPECT_EQ(a.enq_latency_cycles, b.enq_latency_cycles);
  EXPECT_EQ(a.deq_latency_cycles, b.deq_latency_cycles);
  EXPECT_EQ(a.duration_cycles, b.duration_cycles);
  EXPECT_EQ(metrics_to_json(a.metrics).dump(-1),
            metrics_to_json(b.metrics).dump(-1));
}

// Record the spec's workload for `kind` into `trace` and return the
// measured-phase result (same machine construction as run_queue_workload).
SimRunResult record_run(QueueKind kind, const sim::MachineConfig& mcfg,
                        const WorkloadSpec& spec, replay::OpTrace& trace) {
  trace = replay::trace_header(spec, queue_kind_name(kind));
  sim::Machine m(mcfg);
  return with_queue(kind, m, spec, [&](auto& q, int offset) {
    return replay::run_recorded_workload(m, q, spec, offset, trace);
  });
}

replay::ReplayOutcome replay_run(const sim::MachineConfig& mcfg,
                                 const replay::OpTrace& trace) {
  const QueueKind kind = queue_kind_from_name(trace.queue);
  const WorkloadSpec spec = spec_from_trace(trace);
  sim::Machine m(mcfg);
  return with_queue(kind, m, spec, [&](auto& q, int offset) {
    return replay::replay_trace(m, q, trace, offset);
  });
}

histcheck::History history_of(const std::vector<replay::OpRecord>& records) {
  histcheck::History h;
  for (const replay::OpRecord& rec : records) {
    if (rec.op == replay::kOpEnqueue) {
      h.record_enq(rec.invoke_seq, rec.response_seq, rec.value);
    } else {
      h.record_deq(rec.invoke_seq, rec.response_seq, rec.result);
    }
  }
  return h;
}

replay::OpTrace sample_trace() {
  replay::OpTrace t;
  t.source = replay::TraceSource::kSim;
  t.queue = "SBQ-HTM";
  t.workload = 2;
  t.producers = 2;
  t.consumers = 2;
  t.ops_per_thread = 3;
  t.prefill = 4;
  t.seed = 11;
  t.prefill_seed = 7;
  t.basket_capacity = 44;
  t.records = {
      {-1, replay::kOpEnqueue, 16, 1, 9, 1},
      {0, replay::kOpEnqueue, 17, 10, 20, 1},
      {2, replay::kOpDequeue, 0, 12, 25, 16},
      {3, replay::kOpDequeue, 0, 13, 30, 0},
      {1, replay::kOpEnqueue, 1 + (std::uint64_t{1} << 32), 14, 35, 1},
  };
  return t;
}

TEST(OpTraceCodec, RoundTripPreservesEverything) {
  const replay::OpTrace t = sample_trace();
  const std::vector<std::uint8_t> bytes = replay::encode_op_trace(t);
  replay::OpTrace d;
  ASSERT_TRUE(replay::decode_op_trace(bytes, d));
  EXPECT_EQ(d.source, t.source);
  EXPECT_EQ(d.queue, t.queue);
  EXPECT_EQ(d.workload, t.workload);
  EXPECT_EQ(d.producers, t.producers);
  EXPECT_EQ(d.consumers, t.consumers);
  EXPECT_EQ(d.ops_per_thread, t.ops_per_thread);
  EXPECT_EQ(d.prefill, t.prefill);
  EXPECT_EQ(d.seed, t.seed);
  EXPECT_EQ(d.prefill_seed, t.prefill_seed);
  EXPECT_EQ(d.basket_capacity, t.basket_capacity);
  ASSERT_EQ(d.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(d.records[i].thread, t.records[i].thread) << i;
    EXPECT_EQ(d.records[i].op, t.records[i].op) << i;
    EXPECT_EQ(d.records[i].value, t.records[i].value) << i;
    EXPECT_EQ(d.records[i].invoke_seq, t.records[i].invoke_seq) << i;
    EXPECT_EQ(d.records[i].response_seq, t.records[i].response_seq) << i;
    EXPECT_EQ(d.records[i].result, t.records[i].result) << i;
  }
  // Re-encoding the decode is byte-identical (canonical form).
  EXPECT_EQ(replay::encode_op_trace(d), bytes);
}

TEST(OpTraceCodec, RejectsEveryTruncation) {
  const std::vector<std::uint8_t> bytes =
      replay::encode_op_trace(sample_trace());
  replay::OpTrace d;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(n));
    EXPECT_FALSE(replay::decode_op_trace(cut, d)) << "length " << n;
  }
}

TEST(OpTraceCodec, RejectsEverySingleBitFlipByte) {
  const std::vector<std::uint8_t> bytes =
      replay::encode_op_trace(sample_trace());
  replay::OpTrace d;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_FALSE(replay::decode_op_trace(bad, d)) << "byte " << i;
  }
}

TEST(OpTraceCodec, RejectsForeignMagicStaleVersionAndTrailingGarbage) {
  const std::vector<std::uint8_t> bytes =
      replay::encode_op_trace(sample_trace());
  replay::OpTrace d;

  // Foreign magic ("SBQ1", the snapshot format) — even with a checksum
  // recomputed over the altered bytes, the magic gate must hold. The
  // single-byte-flip test already covers checksum-protected damage; here
  // the trailing checksum is re-derived the way a foreign-but-valid file
  // would carry one.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[3] = 0x31;  // 'O' -> '1'
    // Recompute the trailing FNV-1a64 over everything before it.
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i + 8 < bad.size(); ++i) {
      h = (h ^ bad[i]) * 1099511628211ULL;
    }
    for (int i = 0; i < 8; ++i) {
      bad[bad.size() - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(h >> (8 * i));
    }
    EXPECT_FALSE(replay::decode_op_trace(bad, d));
  }

  // Stale version (version + 1), checksum re-derived likewise.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = static_cast<std::uint8_t>(replay::kOpTraceFormatVersion + 1);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i + 8 < bad.size(); ++i) {
      h = (h ^ bad[i]) * 1099511628211ULL;
    }
    for (int i = 0; i < 8; ++i) {
      bad[bad.size() - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(h >> (8 * i));
    }
    EXPECT_FALSE(replay::decode_op_trace(bad, d));
  }

  // Trailing garbage after a perfectly valid blob.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.push_back(0);
    EXPECT_FALSE(replay::decode_op_trace(bad, d));
    EXPECT_FALSE(replay::decode_op_trace({}, d));
  }
}

TEST(SimRecordReplay, RecordingIsScheduleInvisibleAndReplayExact) {
  const sim::MachineConfig mcfg = small_config(4);
  for (QueueKind kind : evaluated_queue_kinds()) {
    const WorkloadSpec spec = mixed_spec(/*seed=*/17);
    const SimRunResult plain = run_queue_workload(kind, mcfg, spec);
    ASSERT_GT(plain.enq_ops, 0u) << queue_kind_name(kind);

    replay::OpTrace trace;
    const SimRunResult recorded = record_run(kind, mcfg, spec, trace);
    expect_same_run(plain, recorded, queue_kind_name(kind));
    // Every successful op is recorded (null dequeues add more records).
    EXPECT_GE(trace.records.size(),
              static_cast<std::size_t>(plain.enq_ops + plain.deq_ops))
        << queue_kind_name(kind);

    // Replay under the recording config reproduces the schedule exactly.
    const replay::ReplayOutcome rep = replay_run(mcfg, trace);
    expect_same_run(plain, rep.run,
                    (std::string(queue_kind_name(kind)) + " replay").c_str());
    EXPECT_EQ(rep.value_mismatches, 0u) << queue_kind_name(kind);

    // File round-trip: encode -> write -> read -> re-encode, byte-equal.
    const std::string path =
        std::string(::testing::TempDir()) + "replay_test_" +
        std::to_string(static_cast<int>(kind)) + ".ops";
    ASSERT_TRUE(replay::write_op_trace_file(path, trace));
    replay::OpTrace back;
    ASSERT_TRUE(replay::read_op_trace_file(path, back));
    EXPECT_EQ(replay::encode_op_trace(back), replay::encode_op_trace(trace));
    std::remove(path.c_str());
  }
}

// Pinned bytes: the FNV-1a digest of the encoded op trace each queue
// records, and of the history its replay observes (encoded under the same
// header), for a consumer-only spec and a mixed spec whose prefill records
// carry thread -(p+1). Recording and replay must not move a byte; a
// change to either the workload schedule or the SBQO layout moves these.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ULL;
  return h;
}

struct PinnedTrace {
  QueueKind kind;
  std::uint64_t trace_digest;
  std::uint64_t observed_digest;
};

void expect_pinned_traces(const WorkloadSpec& spec,
                          const std::vector<PinnedTrace>& pins) {
  const sim::MachineConfig mcfg = small_config(4);
  for (const PinnedTrace& pin : pins) {
    SCOPED_TRACE(queue_kind_name(pin.kind));
    replay::OpTrace trace;
    record_run(pin.kind, mcfg, spec, trace);
    replay::OpTrace observed = trace;
    observed.records = replay_run(mcfg, trace).observed;
    EXPECT_EQ(fnv1a(replay::encode_op_trace(trace)), pin.trace_digest);
    EXPECT_EQ(fnv1a(replay::encode_op_trace(observed)), pin.observed_digest);
  }
}

TEST(SimRecordReplay, PinnedConsumerOnlyTraceDigests) {
  WorkloadSpec spec;
  spec.kind = Workload::kConsumerOnly;
  spec.producers = 3;
  spec.consumers = 2;
  spec.ops_per_thread = 12;
  spec.seed = 23;
  spec.prefill_seed = 5;
  expect_pinned_traces(spec, {
      {QueueKind::kSbqHtm, 0xd177f2404753de3cULL,
       0xd177f2404753de3cULL},
      {QueueKind::kSbqCas, 0x376dc71904fe0955ULL,
       0x376dc71904fe0955ULL},
      {QueueKind::kWfQueue, 0x7ca4aa056dc8190eULL,
       0x7ca4aa056dc8190eULL},
      {QueueKind::kBqOriginal, 0xe6a3e06956b7bcd5ULL,
       0xe6a3e06956b7bcd5ULL},
      {QueueKind::kCcQueue, 0x12095a6db27c129cULL,
       0x12095a6db27c129cULL},
      {QueueKind::kMsQueue, 0xf35cfb24d4ff885fULL,
       0xf35cfb24d4ff885fULL},
  });
}

TEST(SimRecordReplay, PinnedMixedWithPrefillTraceDigests) {
  WorkloadSpec spec = mixed_spec(/*seed=*/31);
  spec.prefill = 7;
  expect_pinned_traces(spec, {
      {QueueKind::kSbqHtm, 0x125e621734615227ULL,
       0x125e621734615227ULL},
      {QueueKind::kSbqCas, 0x6d90a1f7edaee74cULL,
       0x6d90a1f7edaee74cULL},
      {QueueKind::kWfQueue, 0x203e468fde374689ULL,
       0x203e468fde374689ULL},
      {QueueKind::kBqOriginal, 0x0581ff4d774171ecULL,
       0x0581ff4d774171ecULL},
      {QueueKind::kCcQueue, 0xd5a621bd7b86adf4ULL,
       0xd5a621bd7b86adf4ULL},
      {QueueKind::kMsQueue, 0xb269f17e7952fb3eULL,
       0xb269f17e7952fb3eULL},
  });
}

TEST(SimRecordReplay, RecordedHistoriesAreLinearizable) {
  const sim::MachineConfig mcfg = small_config(4);
  for (QueueKind kind : evaluated_queue_kinds()) {
    // Mixed with no prefill: values are unique across the whole history, so
    // the HSV checks apply (see docs/replay.md for the prefill caveat).
    replay::OpTrace trace;
    record_run(kind, mcfg, mixed_spec(/*seed=*/29), trace);
    const auto violations = history_of(trace.records).check();
    EXPECT_TRUE(violations.empty())
        << queue_kind_name(kind) << ": " << violations.size()
        << " violations, first: "
        << (violations.empty() ? "" : violations.front().kind + " " +
                                          violations.front().detail);
  }
}

TEST(NativeRecord, AllQueuesLinearizableAndValueConserving) {
  replay::NativeRecordSpec spec;
  spec.threads = 4;
  spec.pairs_per_thread = 128;
  spec.seed = 3;
  for (const std::string& name : replay::native_record_queue_names()) {
    replay::OpTrace trace;
    ASSERT_TRUE(replay::record_native_queue(name, spec, trace)) << name;
    EXPECT_EQ(trace.source, replay::TraceSource::kNative) << name;
    EXPECT_EQ(trace.queue, name);

    std::uint64_t enqueues = 0, hits = 0;
    for (const replay::OpRecord& rec : trace.records) {
      if (rec.op == replay::kOpEnqueue) {
        ++enqueues;
      } else if (rec.result != 0) {
        ++hits;
      }
      EXPECT_LT(rec.invoke_seq, rec.response_seq) << name;
    }
    // The post-join drain empties the queue: conservation is exact.
    EXPECT_EQ(enqueues,
              static_cast<std::uint64_t>(spec.threads) * spec.pairs_per_thread)
        << name;
    EXPECT_EQ(enqueues, hits) << name;

    const auto violations = history_of(trace.records).check();
    EXPECT_TRUE(violations.empty())
        << name << ": " << violations.size() << " violations, first: "
        << (violations.empty() ? "" : violations.front().kind + " " +
                                          violations.front().detail);
  }
}

TEST(NativeRecord, MutatedTraceFailsTheChecker) {
  replay::NativeRecordSpec spec;
  spec.threads = 2;
  spec.pairs_per_thread = 32;
  replay::OpTrace trace;
  ASSERT_TRUE(replay::record_native_queue("MS-Queue", spec, trace));

  // Corrupt one successful dequeue to return a never-enqueued value: VFresh.
  replay::OpTrace fresh = trace;
  for (replay::OpRecord& rec : fresh.records) {
    if (rec.op == replay::kOpDequeue && rec.result != 0) {
      rec.result = 0xdeadbeefULL << 8;
      break;
    }
  }
  EXPECT_FALSE(history_of(fresh.records).check().empty());

  // Duplicate a successful dequeue's result onto another: VRepeat.
  replay::OpTrace repeat = trace;
  replay::OpRecord* first = nullptr;
  for (replay::OpRecord& rec : repeat.records) {
    if (rec.op == replay::kOpDequeue && rec.result != 0) {
      if (first == nullptr) {
        first = &rec;
      } else if (rec.result != first->result) {
        rec.result = first->result;
        break;
      }
    }
  }
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(history_of(repeat.records).check().empty());
}

TEST(NativeReplay, NativeTraceReplaysOnTheSimulatorLinearizably) {
  replay::NativeRecordSpec spec;
  spec.threads = 3;
  spec.pairs_per_thread = 24;
  replay::OpTrace trace;
  ASSERT_TRUE(replay::record_native_queue("SBQ-CAS", spec, trace));

  const std::string path =
      std::string(::testing::TempDir()) + "replay_test_native.ops";
  ASSERT_TRUE(replay::write_op_trace_file(path, trace));
  const ReplaySummary s = run_replay_file(path, small_config(2));
  std::remove(path.c_str());

  EXPECT_EQ(s.trace_records, trace.records.size());
  EXPECT_EQ(s.outcome.run.enq_ops,
            static_cast<std::uint64_t>(spec.threads) * spec.pairs_per_thread);
  // The replayed history (with the simulator's virtual timestamps) must be
  // linearizable in its own right.
  const auto violations = history_of(s.outcome.observed).check();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty()
              ? ""
              : violations.front().kind + " " + violations.front().detail);
}

TEST(NativeReplay, ReplayIsDeterministic) {
  replay::NativeRecordSpec spec;
  spec.threads = 2;
  spec.pairs_per_thread = 16;
  replay::OpTrace trace;
  ASSERT_TRUE(replay::record_native_queue("WF-Queue", spec, trace));

  auto run_once = [&] {
    const QueueKind kind = queue_kind_from_name(trace.queue);
    const WorkloadSpec wspec = spec_from_trace(trace);
    sim::MachineConfig mcfg = small_config(replay_min_cores(wspec));
    sim::Machine m(mcfg);
    return with_queue(kind, m, wspec, [&](auto& q, int offset) {
      return replay::replay_trace(m, q, trace, offset);
    });
  };
  const replay::ReplayOutcome a = run_once();
  const replay::ReplayOutcome b = run_once();
  expect_same_run(a.run, b.run, "native replay determinism");
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (std::size_t i = 0; i < a.observed.size(); ++i) {
    EXPECT_EQ(a.observed[i].invoke_seq, b.observed[i].invoke_seq) << i;
    EXPECT_EQ(a.observed[i].response_seq, b.observed[i].response_seq) << i;
    EXPECT_EQ(a.observed[i].result, b.observed[i].result) << i;
  }
}

// --replay-ops refuses a header that disagrees with its records before it
// sizes a machine from it (docs/replay.md §3). Each trace below is a
// recorded run with one field or record edited.
replay::OpTrace recorded_trace(Workload kind) {
  WorkloadSpec spec = mixed_spec(/*seed=*/5);
  spec.kind = kind;
  spec.ops_per_thread = 5;
  spec.prefill = 4;
  replay::OpTrace trace;
  record_run(QueueKind::kSbqHtm, small_config(4), spec, trace);
  return trace;
}

replay::OpTrace native_trace() {
  replay::NativeRecordSpec spec;
  spec.threads = 2;
  spec.pairs_per_thread = 8;
  replay::OpTrace trace;
  EXPECT_TRUE(replay::record_native_queue("MS-Queue", spec, trace));
  return trace;
}

// Index of the first record of `thread` (the trace must have one).
std::size_t first_record_of(const replay::OpTrace& trace, int thread) {
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    if (trace.records[i].thread == thread) return i;
  }
  ADD_FAILURE() << "no record of thread " << thread;
  return 0;
}

// Replays `trace` through a file, as --replay-ops does.
void replay_via_file(const replay::OpTrace& trace) {
  const std::string path =
      std::string(::testing::TempDir()) + "replay_test_header.ops";
  ASSERT_TRUE(replay::write_op_trace_file(path, trace));
  struct Remove {
    const std::string& path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  run_replay_file(path, small_config(2));
}

TEST(ReplayHeaderChecks, UneditedTracesReplay) {
  for (Workload kind : {Workload::kProducerOnly, Workload::kConsumerOnly,
                        Workload::kMixed}) {
    EXPECT_NO_THROW(replay_via_file(recorded_trace(kind)));
  }
  EXPECT_NO_THROW(replay_via_file(native_trace()));
}

TEST(ReplayHeaderChecks, RefusesRecordThreadOutsideTheRanges) {
  // Producer-only, 2 producers: only threads 0 and 1 run.
  for (int thread : {7, 2, -1}) {
    replay::OpTrace t = recorded_trace(Workload::kProducerOnly);
    t.records[3].thread = thread;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument) << thread;
  }
  // Consumer-only, 2 prefill producers and 2 consumers: threads -2, -1, 2, 3.
  for (int thread : {-3, 0, 1, 4}) {
    replay::OpTrace t = recorded_trace(Workload::kConsumerOnly);
    t.records[first_record_of(t, 3)].thread = thread;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument) << thread;
  }
  // Mixed: threads -2 .. 3.
  for (int thread : {-3, 4}) {
    replay::OpTrace t = recorded_trace(Workload::kMixed);
    t.records[first_record_of(t, 0)].thread = thread;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument) << thread;
  }
  // Native, 2 threads: [0, 2).
  for (int thread : {-1, 2}) {
    replay::OpTrace t = native_trace();
    t.records[0].thread = thread;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument) << thread;
  }
}

TEST(ReplayHeaderChecks, RefusesProducerDequeueAndConsumerEnqueue) {
  // A prefill producer, a measured producer, and a consumer (thread 2).
  for (int thread : {-1, 0, 2}) {
    replay::OpTrace t = recorded_trace(Workload::kMixed);
    replay::OpRecord& rec = t.records[first_record_of(t, thread)];
    rec.op = rec.op == replay::kOpEnqueue ? replay::kOpDequeue
                                          : replay::kOpEnqueue;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument) << thread;
  }
}

TEST(ReplayHeaderChecks, RefusesZeroProducersOrConsumers) {
  for (Workload kind : {Workload::kProducerOnly, Workload::kConsumerOnly,
                        Workload::kMixed}) {
    replay::OpTrace t = recorded_trace(kind);
    t.producers = 0;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument);
  }
  for (Workload kind : {Workload::kConsumerOnly, Workload::kMixed}) {
    replay::OpTrace t = recorded_trace(kind);
    t.consumers = 0;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument);
  }
  replay::OpTrace native = native_trace();
  native.producers = 0;
  EXPECT_THROW(replay_via_file(native), std::invalid_argument);
}

TEST(ReplayHeaderChecks, RefusesMoreRunningThreadsThanRecords) {
  for (std::uint32_t n : {0x7fffffffu, 0xffffffffu}) {
    for (Workload kind : {Workload::kProducerOnly, Workload::kConsumerOnly,
                          Workload::kMixed}) {
      replay::OpTrace t = recorded_trace(kind);
      t.producers = n;
      EXPECT_THROW(replay_via_file(t), std::invalid_argument) << n;
      t = recorded_trace(kind);
      t.consumers = n;  // producer-only consumers still size the queue
      EXPECT_THROW(replay_via_file(t), std::invalid_argument) << n;
    }
    replay::OpTrace native = native_trace();
    native.producers = n;
    native.consumers = n;
    EXPECT_THROW(replay_via_file(native), std::invalid_argument) << n;
    native = native_trace();
    native.consumers = n;  // a native thread both enqueues and dequeues
    EXPECT_THROW(replay_via_file(native), std::invalid_argument) << n;
  }
}

TEST(ReplayHeaderChecks, RefusesBasketCapacityAboveIntMax) {
  for (std::uint32_t cap : {0x80000000u, 0xffffffffu}) {
    replay::OpTrace t = recorded_trace(Workload::kConsumerOnly);
    t.basket_capacity = cap;
    EXPECT_THROW(replay_via_file(t), std::invalid_argument) << cap;
  }
}

}  // namespace
}  // namespace sbq::bench
