// Sim-side op recording and trace replay (docs/replay.md).
//
// Recording twins of the simq workload coroutines append one OpRecord per
// queue op to a host-side log. The append happens outside the simulated
// timeline (no simulated think/latency cost), so a recorded run's schedule
// — and therefore its metrics — is byte-identical to an unrecorded one
// (pinned by tests/replay_test.cpp). The bodies must stay in lockstep with
// simq::detail::producer_thread / consumer_thread in
// src/benchsupport/sim_workload.hpp: same rng streams, same think calls,
// same value scheme.
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
#include <memory>
#include <stdexcept>
#include <vector>

#include "benchsupport/sim_workload.hpp"
#include "common/rng.hpp"
#include "replay/op_trace.hpp"

namespace sbq::replay {

// Host-side single-threaded op log, appended in the engine's global event
// order.
struct SimOpLog {
  std::vector<OpRecord> records;
};

namespace detail {

using simq::Machine;
using simq::Task;
using simq::Time;
using simq::Value;

// Lockstep twin of simq::detail::producer_thread plus the log append.
template <typename QueueT>
Task<void> recording_producer(Machine& m, QueueT& q, int core, int id,
                              int log_thread, Value ops, std::uint64_t seed,
                              std::shared_ptr<simq::detail::Accum> acc,
                              SimOpLog* log) {
  Xoshiro256 rng(seed);
  sim::Core& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  for (Value i = 0; i < ops; ++i) {
    const Value v = simq::kFirstElement + (static_cast<Value>(id) << 32 | i);
    const Time start = c.now();
    co_await q.enqueue(c, v, id);
    acc->enq_lat_cycles += c.now() - start;
    ++acc->enq;
    log->records.push_back({log_thread, kOpEnqueue, v, start, c.now(), 1});
    co_await c.think(1 + rng.next_below(8));
  }
}

// Lockstep twin of simq::detail::consumer_thread plus the log append (null
// dequeues included: they are part of the logical history).
template <typename QueueT>
Task<void> recording_consumer(Machine& m, QueueT& q, int core, int id,
                              int log_thread, Value ops, std::uint64_t seed,
                              std::shared_ptr<simq::detail::Accum> acc,
                              SimOpLog* log) {
  Xoshiro256 rng(seed);
  sim::Core& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  Value got = 0;
  while (got < ops) {
    const Time start = c.now();
    const Value e = co_await q.dequeue(c, id);
    log->records.push_back({log_thread, kOpDequeue, 0, start, c.now(), e});
    if (e != 0) {
      acc->deq_lat_cycles += c.now() - start;
      ++acc->deq;
      ++got;
    } else {
      co_await c.think(64);  // transiently empty; back off briefly
    }
  }
}

// Replay producer: the value sequence comes from the trace instead of being
// regenerated, everything else matches recording_producer.
template <typename QueueT>
Task<void> replay_producer(Machine& m, QueueT& q, int core, int id,
                           int log_thread, const std::vector<Value>* values,
                           std::uint64_t seed,
                           std::shared_ptr<simq::detail::Accum> acc,
                           SimOpLog* log) {
  Xoshiro256 rng(seed);
  sim::Core& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  for (std::size_t i = 0; i < values->size(); ++i) {
    const Value v = (*values)[i];
    const Time start = c.now();
    co_await q.enqueue(c, v, id);
    acc->enq_lat_cycles += c.now() - start;
    ++acc->enq;
    if (log != nullptr) {
      log->records.push_back({log_thread, kOpEnqueue, v, start, c.now(), 1});
    }
    co_await c.think(1 + rng.next_below(8));
  }
}

// Replay consumer: runs until it has matched the recorded success count,
// diffing each successful dequeue against the recorded value sequence.
template <typename QueueT>
Task<void> replay_consumer(Machine& m, QueueT& q, int core, int id,
                           int log_thread, const std::vector<Value>* expected,
                           std::uint64_t seed,
                           std::shared_ptr<simq::detail::Accum> acc,
                           SimOpLog* log, std::uint64_t* mismatches) {
  Xoshiro256 rng(seed);
  sim::Core& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  Value got = 0;
  const Value ops = static_cast<Value>(expected->size());
  while (got < ops) {
    const Time start = c.now();
    const Value e = co_await q.dequeue(c, id);
    if (log != nullptr) {
      log->records.push_back({log_thread, kOpDequeue, 0, start, c.now(), e});
    }
    if (e != 0) {
      acc->deq_lat_cycles += c.now() - start;
      ++acc->deq;
      if (e != (*expected)[static_cast<std::size_t>(got)]) ++*mismatches;
      ++got;
    } else {
      co_await c.think(64);
    }
  }
}

// Native-trace replay actor: walks one native thread's recorded op list in
// invocation order. Dequeues are single attempts (the native workload never
// retries), and a deterministic think stream keeps the actors from
// lockstepping — seeded off the trace seed so the replay itself is
// reproducible.
template <typename QueueT>
Task<void> replay_native_thread(Machine& m, QueueT& q, int core, int enq_id,
                                int deq_id, int log_thread,
                                const std::vector<OpRecord>* ops,
                                std::uint64_t seed,
                                std::shared_ptr<simq::detail::Accum> acc,
                                SimOpLog* log) {
  Xoshiro256 rng(seed);
  sim::Core& c = m.core(core);
  co_await c.think(1 + rng.next_below(32));
  for (const OpRecord& rec : *ops) {
    const Time start = c.now();
    if (rec.op == kOpEnqueue) {
      co_await q.enqueue(c, rec.value, enq_id);
      acc->enq_lat_cycles += c.now() - start;
      ++acc->enq;
      if (log != nullptr) {
        log->records.push_back(
            {log_thread, kOpEnqueue, rec.value, start, c.now(), 1});
      }
    } else {
      const Value e = co_await q.dequeue(c, deq_id);
      if (e != 0) {
        acc->deq_lat_cycles += c.now() - start;
        ++acc->deq;
      }
      if (log != nullptr) {
        log->records.push_back({log_thread, kOpDequeue, 0, start, c.now(), e});
      }
    }
    co_await c.think(1 + rng.next_below(8));
  }
}

inline std::uint64_t trace_prefill_seed(const OpTrace& t) {
  return t.prefill_seed == 0 ? t.seed : t.prefill_seed;
}

inline simq::Value trace_prefill_per_producer(const OpTrace& t) {
  const int producers = static_cast<int>(t.producers);
  switch (t.workload) {
    case 0:
      return 0;
    case 1:
      return simq::consumer_only_per_producer(producers,
                                              static_cast<int>(t.consumers),
                                              t.ops_per_thread);
    case 2:
      return simq::mixed_per_producer(producers, t.prefill);
  }
  throw std::logic_error("bad trace workload");
}

}  // namespace detail

// Runs the workload described by `trace`'s header on (m, q), recording
// every op (prefill included) into trace.records. The caller fills the
// header fields and owns machine/queue construction. Returns the
// measured-phase result, which is byte-identical to the same spec run
// unrecorded.
template <typename QueueT>
simq::SimRunResult run_recorded_workload(simq::Machine& m, QueueT& q,
                                         OpTrace& trace,
                                         int consumer_id_offset) {
  using detail::Value;
  SimOpLog log;
  const int producers = static_cast<int>(trace.producers);
  const int consumers = static_cast<int>(trace.consumers);
  const Value per_producer = detail::trace_prefill_per_producer(trace);
  // Run the prefill phase whenever bench::prefill_spec would — including a
  // zero-element fill (each producer still costs its initial think), so the
  // recorded schedule twins the plain run structurally, not just op-wise.
  if (trace.workload != 0) {
    const std::uint64_t pseed = detail::trace_prefill_seed(trace);
    auto fill_acc = std::make_shared<simq::detail::Accum>();
    for (int p = 0; p < producers; ++p) {
      m.spawn(detail::recording_producer(
                  m, q, p, p, -(p + 1), per_producer,
                  pseed * 7 + static_cast<std::uint64_t>(p), fill_acc, &log));
    }
    m.run();
  }

  auto acc = std::make_shared<simq::detail::Accum>();
  const detail::Time start = m.now();
  if (trace.workload == 0 || trace.workload == 2) {
    for (int p = 0; p < producers; ++p) {
      m.spawn(detail::recording_producer(
                  m, q, p, p, p, trace.ops_per_thread,
                  trace.seed * 1000003 + static_cast<std::uint64_t>(p), acc,
                  &log));
    }
  }
  if (trace.workload == 1 || trace.workload == 2) {
    const int consumer_core0 = trace.workload == 2 ? m.core_count() / 2 : 0;
    for (int ci = 0; ci < consumers; ++ci) {
      m.spawn(detail::recording_consumer(
                  m, q, consumer_core0 + ci, consumer_id_offset + ci,
                  producers + ci, trace.ops_per_thread,
                  trace.seed * 2000003 + static_cast<std::uint64_t>(ci), acc,
                  &log));
    }
  }
  m.run();

  simq::SimRunResult r;
  r.enq_ops = acc->enq;
  r.deq_ops = acc->deq;
  r.enq_latency_cycles =
      r.enq_ops ? acc->enq_lat() / static_cast<double>(r.enq_ops) : 0;
  r.deq_latency_cycles =
      r.deq_ops ? acc->deq_lat() / static_cast<double>(r.deq_ops) : 0;
  r.duration_cycles = static_cast<double>(m.now() - start);
  r.metrics = m.metrics();
  trace.records = std::move(log.records);
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

// Feeds `trace` back into (m, q): per-thread op sequences are pinned from
// the records while think/rng streams regenerate from the header. `m` must
// be serial and have enough cores for the trace's thread placement.
template <typename QueueT>
ReplayOutcome replay_trace(simq::Machine& m, QueueT& q, const OpTrace& trace,
                           int consumer_id_offset) {
  using detail::Value;
  ReplayOutcome out;
  SimOpLog log;
  auto acc = std::make_shared<simq::detail::Accum>();

  if (trace.source == TraceSource::kNative) {
    const int threads = static_cast<int>(trace.producers);
    std::vector<std::vector<OpRecord>> per_thread(
        static_cast<std::size_t>(threads));
    for (const OpRecord& rec : trace.records) {
      if (rec.thread < 0 || rec.thread >= threads) continue;
      per_thread[static_cast<std::size_t>(rec.thread)].push_back(rec);
    }
    for (auto& ops : per_thread) {
      std::stable_sort(ops.begin(), ops.end(),
                       [](const OpRecord& a, const OpRecord& b) {
                         return a.invoke_seq < b.invoke_seq;
                       });
    }
    const detail::Time start = m.now();
    for (int t = 0; t < threads; ++t) {
      const int deq_id =
          consumer_id_offset == 0 ? t : consumer_id_offset + t;
      m.spawn(detail::replay_native_thread(
                  m, q, t, t, deq_id, t,
                  &per_thread[static_cast<std::size_t>(t)],
                  trace.seed * 3000003 + static_cast<std::uint64_t>(t), acc,
                  &log));
    }
    m.run();
    out.run.enq_ops = acc->enq;
    out.run.deq_ops = acc->deq;
    out.run.duration_cycles = static_cast<double>(m.now() - start);
    out.run.metrics = m.metrics();
    out.observed = std::move(log.records);
    return out;
  }

  // Sim-source: partition by phase and thread.
  const int producers = static_cast<int>(trace.producers);
  const int consumers = static_cast<int>(trace.consumers);
  std::vector<std::vector<Value>> prefill_values(
      static_cast<std::size_t>(producers));
  std::vector<std::vector<Value>> enq_values(
      static_cast<std::size_t>(producers));
  std::vector<std::vector<Value>> deq_values(
      static_cast<std::size_t>(consumers));
  for (const OpRecord& rec : trace.records) {
    if (rec.thread < 0) {
      const int p = -(rec.thread + 1);
      if (p < producers && rec.op == kOpEnqueue) {
        prefill_values[static_cast<std::size_t>(p)].push_back(rec.value);
      }
    } else if (rec.op == kOpEnqueue) {
      if (rec.thread < producers) {
        enq_values[static_cast<std::size_t>(rec.thread)].push_back(rec.value);
      }
    } else {
      const int ci = rec.thread - producers;
      if (ci >= 0 && ci < consumers && rec.result != 0) {
        deq_values[static_cast<std::size_t>(ci)].push_back(rec.result);
      }
    }
  }

  // Prefill phase structure comes from the header (like prefill_spec), not
  // from whether any prefill records exist: a zero-element fill still spawns
  // its producers so the replayed schedule twins the recorded one.
  if (trace.workload != 0) {
    const std::uint64_t pseed = detail::trace_prefill_seed(trace);
    auto fill_acc = std::make_shared<simq::detail::Accum>();
    for (int p = 0; p < producers; ++p) {
      m.spawn(detail::replay_producer(
                  m, q, p, p, -(p + 1),
                  &prefill_values[static_cast<std::size_t>(p)],
                  pseed * 7 + static_cast<std::uint64_t>(p), fill_acc, &log));
    }
    m.run();
  }

  const detail::Time start = m.now();
  if (trace.workload == 0 || trace.workload == 2) {
    for (int p = 0; p < producers; ++p) {
      m.spawn(detail::replay_producer(
                  m, q, p, p, p, &enq_values[static_cast<std::size_t>(p)],
                  trace.seed * 1000003 + static_cast<std::uint64_t>(p), acc,
                  &log));
    }
  }
  if (trace.workload == 1 || trace.workload == 2) {
    const int consumer_core0 = trace.workload == 2 ? m.core_count() / 2 : 0;
    for (int ci = 0; ci < consumers; ++ci) {
      m.spawn(detail::replay_consumer(
                  m, q, consumer_core0 + ci, consumer_id_offset + ci,
                  producers + ci, &deq_values[static_cast<std::size_t>(ci)],
                  trace.seed * 2000003 + static_cast<std::uint64_t>(ci), acc,
                  &log, &out.value_mismatches));
    }
  }
  m.run();

  out.run.enq_ops = acc->enq;
  out.run.deq_ops = acc->deq;
  out.run.enq_latency_cycles =
      out.run.enq_ops ? acc->enq_lat() / static_cast<double>(out.run.enq_ops)
                      : 0;
  out.run.deq_latency_cycles =
      out.run.deq_ops ? acc->deq_lat() / static_cast<double>(out.run.deq_ops)
                      : 0;
  out.run.duration_cycles = static_cast<double>(m.now() - start);
  out.run.metrics = m.metrics();
  out.observed = std::move(log.records);
  return out;
}

}  // namespace sbq::replay
