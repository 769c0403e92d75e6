// Every engine event can be attributed to a kind. A pass-through probe
// counts each event by its EventKind, and each kCoreStep by its CoreStep,
// before handing it to Machine::on_event. On a 4-thread SBQ-HTM
// producer-only cell and a 4-thread CC-Queue consumer-only cell the counts
// are pinned exactly and sum to the machine's events_processed(): no event
// runs outside the handler.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "sim/machine.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq::bench {
namespace {

using sim::CoreStep;
using sim::EventKind;

struct Counts {
  std::array<std::uint64_t, sim::kEventKindCount> kinds{};
  std::array<std::uint64_t, sim::kCoreStepCount> steps{};
  std::uint64_t events = 0;  // the machine's events_processed()

  std::uint64_t kind(EventKind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
  std::uint64_t step(CoreStep s) const {
    return steps[static_cast<std::size_t>(s)];
  }
};

struct Probe {
  sim::Machine* machine;
  Counts counts;

  static void on_event(void* ctx, const sim::Event& ev) {
    auto& p = *static_cast<Probe*>(ctx);
    ++p.counts.kinds[static_cast<std::size_t>(ev.kind)];
    if (ev.kind == EventKind::kCoreStep) {
      ++p.counts.steps[static_cast<std::size_t>(ev.step.step)];
    }
    sim::Machine::on_event(p.machine, ev);
  }
};

Counts count_cell(QueueKind kind, Workload shape) {
  sim::MachineConfig mcfg;
  mcfg.cores = 4;
  sim::Machine m(mcfg);
  Probe probe{&m, {}};
  m.engine().set_handler(&Probe::on_event, &probe);
  WorkloadSpec spec;
  spec.kind = shape;
  spec.producers = 4;
  spec.consumers = shape == Workload::kProducerOnly ? 0 : 4;
  spec.ops_per_thread = 20;
  spec.seed = 5;
  spec.prefill_seed = 9;
  with_queue(kind, m, spec,
             [&](auto& q, int offset) { run_spec(m, q, spec, offset); });
  probe.counts.events = m.events_processed();
  return probe.counts;
}

void expect_attributed(const Counts& c) {
  std::uint64_t by_kind = 0;
  for (const std::uint64_t n : c.kinds) by_kind += n;
  EXPECT_EQ(by_kind, c.events);
  std::uint64_t by_step = 0;
  for (const std::uint64_t n : c.steps) by_step += n;
  EXPECT_EQ(by_step, c.kind(EventKind::kCoreStep));
}

TEST(EventKinds, SbqHtmProducerOnlyCell) {
  const Counts c = count_cell(QueueKind::kSbqHtm, Workload::kProducerOnly);
  expect_attributed(c);
  EXPECT_EQ(c.events, 2814u);
  EXPECT_EQ(c.kind(EventKind::kDeliver), 1183u);
  EXPECT_EQ(c.kind(EventKind::kDirProcess), 420u);
  EXPECT_EQ(c.kind(EventKind::kAccessDone), 922u);
  EXPECT_EQ(c.kind(EventKind::kResume), 111u);
  EXPECT_EQ(c.kind(EventKind::kCoreStep), 178u);
  EXPECT_EQ(c.step(CoreStep::kPollFinish), 0u);
  EXPECT_EQ(c.step(CoreStep::kPollStep), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxSelfAbort), 18u);
  EXPECT_EQ(c.step(CoreStep::kTxDelayDone), 80u);
  EXPECT_EQ(c.step(CoreStep::kTxFault), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxHitCommit), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxCommitDone), 20u);
  EXPECT_EQ(c.step(CoreStep::kTxPostAbort), 42u);
  EXPECT_EQ(c.step(CoreStep::kTxRetry), 18u);
}

TEST(EventKinds, CcQueueConsumerOnlyCell) {
  const Counts c = count_cell(QueueKind::kCcQueue, Workload::kConsumerOnly);
  expect_attributed(c);
  EXPECT_EQ(c.events, 13659u);
  EXPECT_EQ(c.kind(EventKind::kDeliver), 7685u);
  EXPECT_EQ(c.kind(EventKind::kDirProcess), 2719u);
  EXPECT_EQ(c.kind(EventKind::kAccessDone), 2882u);
  EXPECT_EQ(c.kind(EventKind::kResume), 96u);
  EXPECT_EQ(c.kind(EventKind::kCoreStep), 277u);
  EXPECT_EQ(c.step(CoreStep::kPollFinish), 39u);
  EXPECT_EQ(c.step(CoreStep::kPollStep), 238u);
  EXPECT_EQ(c.step(CoreStep::kTxSelfAbort), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxDelayDone), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxFault), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxHitCommit), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxCommitDone), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxPostAbort), 0u);
  EXPECT_EQ(c.step(CoreStep::kTxRetry), 0u);
}

}  // namespace
}  // namespace sbq::bench
