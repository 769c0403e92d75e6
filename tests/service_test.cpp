// Service-harness invariants (docs/service.md): arrival-schedule
// determinism, admission conservation, and an end-to-end sim-backed smoke
// over the broker.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/stats.hpp"
#include "service/broker.hpp"
#include "sim_queue_bench_util.hpp"

namespace {

using namespace sbq;
using namespace sbq::service;
using sbq::bench::QueueKind;
using sbq::bench::WorkloadSpec;
using sbq::bench::with_queue;

ServiceSpec overload_spec(ArrivalKind kind, AdmissionPolicy policy) {
  ServiceSpec spec;
  spec.arrival.kind = kind;
  // Far past the drain capacity of one consumer with 16-cycle service
  // time, so the depth-8 gate must trip.
  spec.arrival.rate_per_kcycle = 32.0;
  spec.arrival.seed = 7;
  spec.admission.depth_limit = 8;
  spec.admission.policy = policy;
  spec.producers = 2;
  spec.consumers = 1;
  spec.total_ops = 150;
  // Make the *queue* the bottleneck (not the producers' own enqueue
  // latency): with a 2000-cycle downstream service time one consumer
  // drains well under 2 ops/kcycle — far below what two producers can
  // offer — so the depth-8 gate must trip.
  spec.consumer_think = 2000;
  return spec;
}

ServiceResult run_sbq_service(const ServiceSpec& spec) {
  sim::MachineConfig mcfg;
  mcfg.cores = spec.producers + spec.consumers;
  sim::Machine m(mcfg);
  WorkloadSpec qspec;
  qspec.kind = sbq::bench::Workload::kMixed;
  qspec.producers = spec.producers;
  qspec.consumers = spec.consumers;
  return with_queue(QueueKind::kSbqHtm, m, qspec, [&](auto& q, int offset) {
    return run_service(m, q, spec, offset);
  });
}

TEST(ArrivalSchedule, SameConfigSameSchedule) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty,
                           ArrivalKind::kRamp, ArrivalKind::kSkewed}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.rate_per_kcycle = 4.0;
    cfg.seed = 99;
    const auto a = generate_arrivals(cfg, 500);
    const auto b = generate_arrivals(cfg, 500);
    EXPECT_EQ(a, b) << arrival_kind_name(kind);
  }
}

TEST(ArrivalSchedule, SeedChangesSchedule) {
  ArrivalConfig cfg;
  const auto a = generate_arrivals(cfg, 200);
  cfg.seed += 1;
  const auto b = generate_arrivals(cfg, 200);
  EXPECT_NE(a, b);
}

TEST(ArrivalSchedule, TimestampsStrictlyIncrease) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty,
                           ArrivalKind::kRamp}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.rate_per_kcycle = 50.0;  // high rate stresses the >= 1-cycle floor
    const auto times = generate_arrivals(cfg, 300);
    ASSERT_EQ(times.size(), 300u);
    for (std::size_t i = 1; i < times.size(); ++i) {
      EXPECT_GE(times[i], times[i - 1] + 1) << arrival_kind_name(kind);
    }
  }
}

TEST(ArrivalSchedule, BurstyMeanRateExceedsPoisson) {
  ArrivalConfig cfg;
  cfg.rate_per_kcycle = 4.0;
  const auto poisson = generate_arrivals(cfg, 2000);
  cfg.kind = ArrivalKind::kBursty;
  const auto bursty = generate_arrivals(cfg, 2000);
  // Same op count at a higher mean instantaneous rate finishes sooner.
  EXPECT_LT(bursty.back(), poisson.back());
}

TEST(ArrivalSchedule, RejectsNonPositiveRate) {
  ArrivalConfig cfg;
  cfg.rate_per_kcycle = 0.0;
  EXPECT_THROW(generate_arrivals(cfg, 10), std::invalid_argument);
}

TEST(ArrivalSchedule, PartitionCoversEveryOpExactlyOnce) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kSkewed}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    const auto times = generate_arrivals(cfg, 400);
    const auto parts = partition_arrivals(cfg, times, 4);
    ASSERT_EQ(parts.size(), 4u);
    std::vector<int> seen(times.size(), 0);
    for (const auto& worker : parts) {
      for (std::size_t i = 1; i < worker.size(); ++i) {
        EXPECT_LE(worker[i - 1].at, worker[i].at);  // ascending per worker
      }
      for (const WorkerArrival& a : worker) {
        ASSERT_LT(a.op, seen.size());
        EXPECT_EQ(times[a.op], a.at);
        ++seen[a.op];
      }
    }
    for (std::size_t op = 0; op < seen.size(); ++op) {
      EXPECT_EQ(seen[op], 1) << "op " << op << " under "
                             << arrival_kind_name(kind);
    }
  }
}

TEST(ArrivalSchedule, SkewRoutesHotFractionToWorkerZero) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kSkewed;
  cfg.hot_fraction = 0.5;
  const auto times = generate_arrivals(cfg, 2000);
  const auto parts = partition_arrivals(cfg, times, 4);
  const double hot_share =
      static_cast<double>(parts[0].size()) / static_cast<double>(times.size());
  EXPECT_GT(hot_share, 0.4);
  EXPECT_LT(hot_share, 0.6);
  // Round-robin would have given worker 0 exactly 1/4.
  EXPECT_GT(parts[0].size(), parts[1].size());
}

TEST(AdmissionGate, ConservationIdentity) {
  AdmissionConfig cfg;
  cfg.depth_limit = 2;
  AdmissionGate gate(cfg);
  gate.accept();
  gate.accept();
  EXPECT_FALSE(gate.has_room());
  gate.reject();
  gate.release();
  EXPECT_TRUE(gate.has_room());
  gate.accept();
  EXPECT_EQ(gate.offered(), 4u);
  EXPECT_EQ(gate.accepted() + gate.rejected(), gate.offered());
  EXPECT_EQ(gate.depth(), gate.accepted() - gate.released());
}

TEST(ServiceBroker, OverloadDropConservesAndRejects) {
  const ServiceResult r =
      run_sbq_service(overload_spec(ArrivalKind::kPoisson,
                                    AdmissionPolicy::kDrop));
  EXPECT_EQ(r.offered, 150u);
  EXPECT_EQ(r.accepted + r.rejected, r.offered);
  EXPECT_GT(r.rejected, 0u) << "overload past a depth-8 gate must shed load";
  EXPECT_EQ(r.consumed, r.accepted) << "everything admitted must drain";
  EXPECT_EQ(r.sojourn.pushed(), r.consumed);
}

TEST(ServiceBroker, BackpressureWaitsInsteadOfRejecting) {
  const ServiceResult r =
      run_sbq_service(overload_spec(ArrivalKind::kBursty,
                                    AdmissionPolicy::kBackpressure));
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.accepted, r.offered);
  EXPECT_EQ(r.consumed, r.accepted);
  EXPECT_GT(r.backpressure_waits, 0u);
  EXPECT_GT(r.backpressure_cycles, 0u);
}

TEST(ServiceBroker, SojournPercentilesAreSaneUnderOverload) {
  const ServiceResult r =
      run_sbq_service(overload_spec(ArrivalKind::kPoisson,
                                    AdmissionPolicy::kDrop));
  Summary sojourn;
  r.sojourn.drain_into(sojourn, 1.0);
  const double p50 = sojourn.percentile(50);
  const double p99 = sojourn.percentile(99);
  EXPECT_GE(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_GT(p99, 0.0) << "a saturated broker must show queueing delay";
}

TEST(ServiceBroker, RunsAreDeterministic) {
  const ServiceSpec spec =
      overload_spec(ArrivalKind::kRamp, AdmissionPolicy::kDrop);
  const ServiceResult a = run_sbq_service(spec);
  const ServiceResult b = run_sbq_service(spec);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.consumed, b.consumed);
  EXPECT_EQ(a.duration_cycles, b.duration_cycles);
  Summary sa, sb;
  a.sojourn.drain_into(sa, 1.0);
  b.sojourn.drain_into(sb, 1.0);
  EXPECT_EQ(sa.percentile(99), sb.percentile(99));
}

// A zero batch issues nothing and never yields, so the run would hang.
TEST(ServiceBroker, RejectsBatchBelowOne) {
  ServiceSpec spec = overload_spec(ArrivalKind::kPoisson, AdmissionPolicy::kDrop);
  spec.batch = 0;
  EXPECT_THROW(run_sbq_service(spec), std::invalid_argument);
}

TEST(ServiceBroker, UnderloadDeliversEverythingWithoutRejects) {
  ServiceSpec spec;
  spec.arrival.rate_per_kcycle = 1.0;  // well under one consumer's capacity
  spec.arrival.seed = 3;
  spec.admission.depth_limit = 64;
  spec.producers = 2;
  spec.consumers = 1;
  spec.total_ops = 80;
  const ServiceResult r = run_sbq_service(spec);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.consumed, 80u);
}

}  // namespace
