// Sim-side op recording and trace replay (docs/replay.md).
//
// Both run the figure workloads' own coroutine pair and phase runner
// (src/benchsupport/sim_workload.hpp) with an OpTap attached. Recording
// appends one OpRecord per queue op outside the simulated timeline, so a
// recorded run's schedule — and therefore its metrics — is byte-identical
// to an unrecorded one (pinned by tests/replay_test.cpp).
//
// Replay reverses the process: per-thread op sequences from a decoded
// OpTrace are pinned (a producer enqueues exactly its recorded values in
// order; a consumer dequeues until it has matched its recorded success
// count), while the think/rng streams regenerate from the trace header.
// Under the recording MachineConfig the replay reproduces the original
// schedule exactly; under any other config the same logical history runs
// on the new machine and per-thread dequeue results are diffed against the
// recorded ones.
//
// Phase encoding: measured-phase ops carry thread >= 0 (producers 0..P-1,
// consumers P..P+C-1 as global indices); un-measured prefill enqueues carry
// thread -(p+1) so replay and the history checker can reconstruct the
// complete value history without conflating the phases.
#pragma once

#include <algorithm>
#include <climits>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchsupport/sim_workload.hpp"
#include "common/rng.hpp"
#include "replay/op_trace.hpp"

namespace sbq::replay {

// The header of a sim trace of `spec` run on the queue named `queue`.
inline OpTrace trace_header(const simq::WorkloadSpec& spec,
                            const std::string& queue) {
  OpTrace trace;
  trace.source = TraceSource::kSim;
  trace.queue = queue;
  trace.workload = static_cast<std::uint8_t>(spec.kind);
  trace.producers = static_cast<std::uint32_t>(spec.producers);
  trace.consumers = static_cast<std::uint32_t>(spec.consumers);
  trace.ops_per_thread = spec.ops_per_thread;
  trace.prefill = spec.prefill;
  trace.seed = spec.seed;
  trace.prefill_seed = spec.prefill_seed;
  trace.basket_capacity = static_cast<std::uint32_t>(spec.basket_capacity);
  return trace;
}

// The WorkloadSpec a trace header describes (native traces map to the
// mixed shape: every thread is both a producer and a consumer). Throws
// std::invalid_argument, before anything is sized from the header, when
// the header and records disagree in a way replay would otherwise hide:
//   * a record's thread is outside the threads the trace runs — a sim
//     trace's prefill [-P, -1] (not producer-only), producers [0, P) (not
//     consumer-only) and consumers [P, P+C) (not producer-only); a native
//     trace's [0, P);
//   * a sim producer or prefill thread dequeues, or a consumer enqueues;
//   * zero producers, or zero consumers in a consumer-only or mixed trace;
//     a native trace whose consumers differ from its producers;
//   * more running threads than records (P, plus C unless producer-only),
//     or more consumers than records;
//   * basket_capacity above INT_MAX.
inline simq::WorkloadSpec spec_from_trace(const OpTrace& trace) {
  const auto refuse = [](const std::string& why) {
    throw std::invalid_argument("op trace header: " + why);
  };
  const std::uint64_t producers = trace.producers;
  const std::uint64_t consumers = trace.consumers;
  const std::uint64_t records = trace.records.size();
  const bool native = trace.source == TraceSource::kNative;
  const auto kind = static_cast<simq::Workload>(trace.workload);
  if (producers == 0) refuse("zero producers");
  if (kind != simq::Workload::kProducerOnly && consumers == 0) {
    refuse("zero consumers");
  }
  if (native && consumers != producers) {
    refuse("native consumers differ from producers");
  }
  const std::uint64_t running =
      producers + (kind == simq::Workload::kProducerOnly ? 0 : consumers);
  if (running > records || consumers > records) {
    refuse("more threads than records");
  }
  if (trace.basket_capacity > static_cast<std::uint32_t>(INT_MAX)) {
    refuse("basket_capacity above INT_MAX");
  }
  const std::int64_t p = static_cast<std::int64_t>(producers);
  const std::int64_t c = static_cast<std::int64_t>(consumers);
  const bool prefills = kind != simq::Workload::kProducerOnly;
  const bool enqueues = kind != simq::Workload::kConsumerOnly;
  for (const OpRecord& rec : trace.records) {
    const std::int64_t t = rec.thread;
    if (native) {
      if (t < 0 || t >= p) refuse("record thread out of range");
      continue;
    }
    const bool producer = t < 0 ? prefills && t >= -p : enqueues && t < p;
    const bool consumer = prefills && t >= p && t < p + c;
    if (!producer && !consumer) refuse("record thread out of range");
    if (producer != (rec.op == kOpEnqueue)) {
      refuse(producer ? "producer thread dequeues"
                      : "consumer thread enqueues");
    }
  }
  simq::WorkloadSpec spec;
  spec.kind = kind;
  spec.producers = static_cast<int>(producers);
  spec.consumers = static_cast<int>(consumers);
  spec.ops_per_thread = trace.ops_per_thread;
  spec.prefill = trace.prefill;
  spec.seed = trace.seed;
  spec.prefill_seed = trace.prefill_seed;
  spec.basket_capacity = static_cast<int>(trace.basket_capacity);
  return spec;
}

// Runs `spec` on (m, q), recording every op (prefill included) into
// trace.records. The caller owns machine/queue construction. Returns the
// measured-phase result, which is byte-identical to the same spec run
// unrecorded.
template <typename QueueT>
simq::SimRunResult run_recorded_workload(simq::Machine& m, QueueT& q,
                                         const simq::WorkloadSpec& spec,
                                         int consumer_id_offset,
                                         OpTrace& trace) {
  simq::OpTap tap;
  const simq::SimRunResult r = simq::run_spec(m, q, spec, consumer_id_offset,
                                              &tap);
  trace.records = std::move(tap.records);
  return r;
}

struct ReplayOutcome {
  simq::SimRunResult run;
  // Successful dequeues whose value differed from the recorded one at the
  // same per-thread position (sim-source traces only; 0 under the
  // recording config by construction).
  std::uint64_t value_mismatches = 0;
  // The replayed history with this run's virtual timestamps, ready for
  // the history checker or for re-encoding.
  std::vector<OpRecord> observed;
};

namespace detail {

// Native-trace replay actor: walks one native thread's recorded op list in
// invocation order. Dequeues are single attempts (the native workload never
// retries), and a deterministic think stream keeps the actors from
// lockstepping — seeded off the trace seed so the replay itself is
// reproducible. Native thread t runs on core t, enqueues as id t, and its
// replayed ops are logged as thread t.
template <typename QueueT>
simq::Task<void> replay_native_thread(simq::Machine& m, QueueT& q, int thread,
                                      int deq_id,
                                      const std::vector<OpRecord>* ops,
                                      std::uint64_t seed,
                                      simq::detail::Accum* acc,
                                      std::vector<OpRecord>* log) {
  Xoshiro256 rng(seed);
  sim::Core& c = m.core(thread);
  co_await c.think(1 + rng.next_below(32));
  for (const OpRecord& rec : *ops) {
    const simq::Time start = c.now();
    if (rec.op == kOpEnqueue) {
      co_await q.enqueue(c, rec.value, thread);
      acc->enq_lat_cycles += c.now() - start;
      ++acc->enq;
      log->push_back({thread, kOpEnqueue, rec.value, start, c.now(), 1});
    } else {
      const simq::Value e = co_await q.dequeue(c, deq_id);
      if (e != 0) {
        acc->deq_lat_cycles += c.now() - start;
        ++acc->deq;
      }
      log->push_back({thread, kOpDequeue, 0, start, c.now(), e});
    }
    co_await c.think(1 + rng.next_below(8));
  }
}

}  // namespace detail

// Feeds `trace` back into (m, q): per-thread op sequences are pinned from
// the records while think/rng streams regenerate from the header. `m` must
// have enough cores for the trace's thread placement. Throws
// std::invalid_argument on a header spec_from_trace refuses.
template <typename QueueT>
ReplayOutcome replay_trace(simq::Machine& m, QueueT& q, const OpTrace& trace,
                           int consumer_id_offset) {
  const simq::WorkloadSpec spec = spec_from_trace(trace);
  const int producers = spec.producers;
  ReplayOutcome out;

  if (trace.source == TraceSource::kNative) {
    std::vector<std::vector<OpRecord>> per_thread(
        static_cast<std::size_t>(producers));
    for (const OpRecord& rec : trace.records) {
      per_thread[static_cast<std::size_t>(rec.thread)].push_back(rec);
    }
    for (auto& ops : per_thread) {
      std::stable_sort(ops.begin(), ops.end(),
                       [](const OpRecord& a, const OpRecord& b) {
                         return a.invoke_seq < b.invoke_seq;
                       });
    }
    simq::detail::Accum acc;
    const simq::Time start = m.now();
    for (int t = 0; t < producers; ++t) {
      m.spawn(detail::replay_native_thread(
          m, q, t, consumer_id_offset + t,
          &per_thread[static_cast<std::size_t>(t)],
          trace.seed * 3000003 + static_cast<std::uint64_t>(t), &acc,
          &out.observed));
    }
    m.run();
    out.run = simq::detail::run_result(m, acc, start);
    return out;
  }

  // Sim source: pin each record thread's enqueued values or successful
  // dequeue results (spec_from_trace has checked every thread's range).
  simq::OpTap tap;
  tap.pin_base = producers;
  tap.pinned.resize(static_cast<std::size_t>(2 * producers + spec.consumers));
  for (const OpRecord& rec : trace.records) {
    auto& ops = tap.pinned[static_cast<std::size_t>(rec.thread + producers)];
    if (rec.op == kOpEnqueue) {
      ops.push_back(rec.value);
    } else if (rec.result != 0) {
      ops.push_back(rec.result);
    }
  }
  out.run = simq::run_spec(m, q, spec, consumer_id_offset, &tap);
  out.value_mismatches = tap.mismatches;
  out.observed = std::move(tap.records);
  return out;
}

}  // namespace sbq::replay
