// The queue service broker: drives any simulated queue under open-loop
// traffic (docs/service.md).
//
// Closed-loop workloads (src/benchsupport/sim_workload.hpp) measure "how
// fast can T threads hammer the queue"; the broker measures "what does a
// given *offered load* do to latency". Arrivals come from a pre-generated
// deterministic schedule (service/arrival.hpp); load-generator workers
// sleep until an op's arrival time, pass it through admission control
// (service/admission.hpp), and enqueue it; drain workers dequeue and
// "serve" each element. Both sides batch: a producer that wakes up behind
// schedule enqueues every due op back-to-back (up to `batch`), which is
// exactly how an open-loop generator avoids coordinated omission — late
// ops are issued late and their full queueing delay is measured, not
// silently skipped.
//
// Timestamps (docs/service.md "Measuring latency"):
//   arrival     — the op's scheduled arrival time (schedule, not c.now())
//   enq done    — the enqueue coroutine completed
//   deq done    — a drain worker's dequeue returned the element
// enqueue_lat = enq done - arrival (lateness behind schedule + enqueue
// service time);
// sojourn     = deq done - arrival (the end-to-end number p50/p99/p999 are
// reported on). Samples land in LatencyRings reserved up front (no
// allocation inside the measured phase).
//
// The broker's host-side gate/accounting state is read mid-run; that is
// deterministic because the engine runs every event in one global order.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "service/admission.hpp"
#include "service/arrival.hpp"
#include "service/latency_ring.hpp"
#include "sim/machine.hpp"
#include "simqueue/sim_queue_base.hpp"

namespace sbq::service {

struct ServiceSpec {
  ArrivalConfig arrival;
  AdmissionConfig admission;
  int producers = 4;   // load-generator workers, cores [0, P)
  int consumers = 2;   // drain workers, cores [P, P + C)
  std::size_t total_ops = 400;  // offered arrivals per run
  int batch = 4;       // max back-to-back ops per worker wakeup, both sides
  // Per-element downstream service time a drain worker pays after each
  // successful dequeue (what makes overload possible: consumers drain at
  // most ~1000/(consumer_think + dequeue latency) ops/kcycle each).
  sim::Time consumer_think = 16;
  sim::Time empty_backoff = 64;  // drain-worker poll gap on an empty queue
};

struct ServiceResult {
  // Admission accounting at quiescence (offered == accepted + rejected).
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t consumed = 0;
  double duration_cycles = 0;  // first arrival dispatch to quiescence
  // Per-op samples, in cycles (reserved up front for total_ops).
  LatencyRing enqueue_lat{0};
  LatencyRing sojourn{0};
  sim::MetricsSnapshot metrics;

  // ops/s through the broker (consumed ops over the measured window).
  double delivered_mops(double ns_per_cycle) const {
    const double ns = duration_cycles * ns_per_cycle;
    return ns > 0 ? static_cast<double>(consumed) / ns * 1e3 : 0.0;
  }
};

namespace detail {

// Host-side state shared by the workers of one run. Plain (non-atomic)
// members: the simulator runs on one host thread.
struct BrokerState {
  explicit BrokerState(const ServiceSpec& spec,
                       std::vector<sim::Time> arrival_times)
      : gate(spec.admission),
        times(std::move(arrival_times)),
        enqueue_lat(times.size()),
        sojourn(times.size()) {}

  AdmissionGate gate;
  std::vector<sim::Time> times;  // op id -> scheduled arrival [cycles]
  LatencyRing enqueue_lat;
  LatencyRing sojourn;
  std::uint64_t consumed = 0;
  int producers_done = 0;
};

template <typename QueueT>
simq::Task<void> load_worker(sim::Machine& m, QueueT& q, int core, int id,
                             const std::vector<WorkerArrival>* schedule,
                             const ServiceSpec* spec, BrokerState* st) {
  sim::Core& c = m.core(core);
  std::size_t i = 0;
  while (i < schedule->size()) {
    const WorkerArrival& head = (*schedule)[i];
    if (c.now() < head.at) co_await c.think(head.at - c.now());
    // Issue every op that is due by now, up to the batch cap; enqueuing
    // advances c.now(), so a worker running behind schedule streams its
    // backlog out back-to-back instead of re-sleeping per op.
    int in_batch = 0;
    while (i < schedule->size() && (*schedule)[i].at <= c.now() &&
           in_batch < spec->batch) {
      const WorkerArrival a = (*schedule)[i];
      ++i;
      ++in_batch;
      if (!st->gate.has_room()) {
        st->gate.reject();
        continue;
      }
      st->gate.accept();
      co_await q.enqueue(c, simq::kFirstElement + a.op, id);
      st->enqueue_lat.push(c.now() - a.at);
    }
  }
  ++st->producers_done;
}

template <typename QueueT>
simq::Task<void> drain_worker(sim::Machine& m, QueueT& q, int core, int id,
                              const ServiceSpec* spec, BrokerState* st) {
  sim::Core& c = m.core(core);
  for (;;) {
    // accepted is final once every producer finished; until then keep
    // draining even through transient emptiness.
    if (st->producers_done == spec->producers &&
        st->consumed >= st->gate.accepted()) {
      co_return;
    }
    int got = 0;
    while (got < spec->batch) {
      const simq::Value e = co_await q.dequeue(c, id);
      if (e == 0) break;
      const std::size_t op = static_cast<std::size_t>(e - simq::kFirstElement);
      st->gate.release();
      st->sojourn.push(c.now() - st->times[op]);
      ++st->consumed;
      ++got;
    }
    co_await c.think(got > 0 ? spec->consumer_think : spec->empty_backoff);
  }
}

}  // namespace detail

// Run one open-loop service phase on machine `m` over queue `q`. The
// machine must have at least producers + consumers cores; `q` must have
// been constructed for at least that many enqueuers/dequeuers.
// `consumer_id_offset` separates drain-worker ids from load-worker ids for
// queues with a single thread-id space (same convention as
// sim_workload.hpp's measure_spec).
template <typename QueueT>
ServiceResult run_service(sim::Machine& m, QueueT& q, const ServiceSpec& spec,
                          int consumer_id_offset) {
  if (spec.producers < 1 || spec.consumers < 1) {
    throw std::invalid_argument("service needs >= 1 producer and consumer");
  }
  // A zero batch would never issue an op and never yield: the worker spins.
  if (spec.batch < 1) {
    throw std::invalid_argument("service needs a batch of >= 1 op");
  }
  if (m.core_count() < spec.producers + spec.consumers) {
    throw std::invalid_argument("machine too small for the service spec");
  }
  auto st = std::make_unique<detail::BrokerState>(
      spec, generate_arrivals(spec.arrival, spec.total_ops));
  const auto schedules = partition_arrivals(st->times, spec.producers);
  const sim::Time start = m.now();
  for (int p = 0; p < spec.producers; ++p) {
    m.spawn(detail::load_worker(m, q, p, p, &schedules[static_cast<std::size_t>(p)],
                                &spec, st.get()));
  }
  for (int ci = 0; ci < spec.consumers; ++ci) {
    m.spawn(detail::drain_worker(m, q, spec.producers + ci,
                                 consumer_id_offset + ci, &spec, st.get()));
  }
  m.run();

  ServiceResult r;
  r.offered = st->gate.offered();
  r.accepted = st->gate.accepted();
  r.rejected = st->gate.rejected();
  r.consumed = st->consumed;
  r.duration_cycles = static_cast<double>(m.now() - start);
  r.enqueue_lat = std::move(st->enqueue_lat);
  r.sojourn = std::move(st->sojourn);
  r.metrics = m.metrics();
  return r;
}

}  // namespace sbq::service
