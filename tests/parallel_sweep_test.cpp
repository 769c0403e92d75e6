// Determinism regression tests for the parallel sweep runner: a sweep run
// on the --jobs pool must produce results bit-identical to a serial run,
// cell by cell, and the pool must deliver rows in order.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchsupport/parallel_sweep.hpp"
#include "sim/serialize.hpp"
#include "sim_queue_bench_util.hpp"

namespace sbq::bench {
namespace {

// A fig5-style producer-only grid: every evaluated queue at a few thread
// counts, two repeats, collected via run_queue_sweep.
SweepGrid<SimRunResult> run_small_fig5_sweep(int jobs, std::uint64_t seed) {
  const std::vector<int> threads{1, 2, 4};
  const std::vector<QueueKind>& queues = evaluated_queue_kinds();
  const int repeats = 2;
  SweepGrid<SimRunResult> out;
  run_queue_sweep(
      threads, queues, repeats, jobs,
      [&](int t, int repeat) {
        sim::MachineConfig mcfg;
        mcfg.cores = t;
        WorkloadSpec spec;
        spec.kind = Workload::kProducerOnly;
        spec.producers = t;
        spec.ops_per_thread = 30;
        spec.seed = seed + static_cast<std::uint64_t>(repeat) * 7919;
        return std::pair(mcfg, spec);
      },
      [&](std::size_t row, const SweepGrid<SimRunResult>& res) {
        if (row + 1 == threads.size()) out = res;  // snapshot once complete
      });
  return out;
}

void expect_identical(const SweepGrid<SimRunResult>& a,
                      const SweepGrid<SimRunResult>& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(a.cells[i].enq_ops, b.cells[i].enq_ops);
    EXPECT_EQ(a.cells[i].deq_ops, b.cells[i].deq_ops);
    // The simulation is deterministic, so even the derived doubles must be
    // bit-identical — no tolerance.
    EXPECT_EQ(a.cells[i].enq_latency_cycles, b.cells[i].enq_latency_cycles);
    EXPECT_EQ(a.cells[i].deq_latency_cycles, b.cells[i].deq_latency_cycles);
    EXPECT_EQ(a.cells[i].duration_cycles, b.cells[i].duration_cycles);
  }
}

TEST(ParallelSweep, ParallelMatchesSerialCellByCell) {
  const SweepGrid<SimRunResult> serial = run_small_fig5_sweep(/*jobs=*/1, 42);
  const SweepGrid<SimRunResult> parallel = run_small_fig5_sweep(/*jobs=*/4, 42);
  ASSERT_FALSE(serial.cells.empty());
  expect_identical(serial, parallel);
}

TEST(ParallelSweep, SameSeedTwiceIsIdentical) {
  const SweepGrid<SimRunResult> first = run_small_fig5_sweep(/*jobs=*/4, 7);
  const SweepGrid<SimRunResult> second = run_small_fig5_sweep(/*jobs=*/4, 7);
  expect_identical(first, second);
}

TEST(ParallelSweep, DifferentSeedDiffers) {
  const SweepGrid<SimRunResult> a = run_small_fig5_sweep(/*jobs=*/2, 1);
  const SweepGrid<SimRunResult> b = run_small_fig5_sweep(/*jobs=*/2, 99);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    any_diff |= a.cells[i].duration_cycles != b.cells[i].duration_cycles;
  }
  EXPECT_TRUE(any_diff) << "seed must influence the simulated timings";
}

TEST(ParallelSweep, RowsDeliveredInOrderWhileCellsRunOutOfOrder) {
  constexpr std::size_t kRows = 8;
  constexpr std::size_t kCols = 3;
  std::vector<int> order;
  std::atomic<int> cells_run{0};
  run_sweep_cells(
      kRows, kCols, /*jobs=*/4,
      [&](std::size_t) { cells_run.fetch_add(1); },
      [&](std::size_t row) { order.push_back(static_cast<int>(row)); });
  EXPECT_EQ(cells_run.load(), static_cast<int>(kRows * kCols));
  ASSERT_EQ(order.size(), kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(order[r], static_cast<int>(r));
  }
}

TEST(ParallelSweep, CellExceptionPropagates) {
  EXPECT_THROW(
      run_sweep_cells(4, 2, /*jobs=*/3,
                      [&](std::size_t i) {
                        if (i == 5) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
}

TEST(ParallelSweep, SerialModeRunsInline) {
  std::vector<std::size_t> seen;
  run_sweep_cells(2, 2, /*jobs=*/1,
                  [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// A non-square grid whose cells return their own coordinates: a transposed
// index shows as a cell holding another cell's coordinates.
TEST(ParallelSweep, GridCellsKeepTheirCoordinates) {
  using Coords = std::array<std::size_t, 3>;
  constexpr std::size_t kRows = 3, kCols = 2, kReps = 4;
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::vector<std::size_t> order;
    const SweepGrid<Coords> grid = run_grid(
        kRows, kCols, kReps, jobs,
        [](std::size_t row, std::size_t col, std::size_t rep) {
          return Coords{row, col, rep};
        },
        [&](std::size_t row, const SweepGrid<Coords>& done) {
          // A delivered row is complete.
          for (std::size_t c = 0; c < kCols; ++c) {
            for (std::size_t r = 0; r < kReps; ++r) {
              EXPECT_EQ(done.at(row, c, r), (Coords{row, c, r}));
            }
          }
          order.push_back(row);
        });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
    ASSERT_EQ(grid.cells.size(), kRows * kCols * kReps);
    for (std::size_t row = 0; row < kRows; ++row) {
      for (std::size_t c = 0; c < kCols; ++c) {
        for (std::size_t r = 0; r < kReps; ++r) {
          EXPECT_EQ(grid.at(row, c, r), (Coords{row, c, r}));
        }
      }
    }
  }
}

TEST(QueueFactory, NamesRoundTrip) {
  for (QueueKind kind : evaluated_queue_kinds()) {
    EXPECT_EQ(queue_kind_from_name(queue_kind_name(kind)), kind);
  }
  EXPECT_THROW(queue_kind_from_name("No-Such-Queue"), std::invalid_argument);
  EXPECT_EQ(queue_names().size(), evaluated_queue_kinds().size());
}

// sim_machine_config is the one place the shared flags reach a machine, so
// each machine flag must land in the config and the defaults must not.
BenchOptions parse_flags(std::vector<std::string> flags) {
  std::vector<char*> argv;
  std::string prog = "bench";
  argv.push_back(prog.data());
  for (std::string& f : flags) argv.push_back(f.data());
  return BenchOptions::parse(static_cast<int>(argv.size()), argv.data(),
                             "fig5_enqueue");
}

TEST(SimMachineConfig, DefaultOptionsOnlySetCoresAndSockets) {
  const BenchOptions opts = parse_flags({});
  for (const auto& [cores, sockets] : {std::pair(1, 1), std::pair(4, 2)}) {
    sim::MachineConfig expected;
    expected.cores = cores;
    expected.sockets = sockets;
    const sim::MachineConfig got = sim_machine_config(opts, cores, sockets);
    // The digest hashes every field's canonical encoding.
    EXPECT_EQ(sim::machine_config_digest(got),
              sim::machine_config_digest(expected));
    EXPECT_FALSE(got.fault_plan.enabled);
  }
}

TEST(SimMachineConfig, FaultFlagsLandInTheFaultPlan) {
  const sim::MachineConfig mcfg = sim_machine_config(
      parse_flags({"--fault-rate", "0.4", "--fault-seed", "9",
                   "--fault-jitter", "5"}),
      4);
  const sim::FaultPlan& plan = mcfg.fault_plan;
  EXPECT_TRUE(plan.enabled);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.capacity_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.interrupt_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.spurious_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.message_jitter_rate, 0.5);
  EXPECT_EQ(plan.max_message_jitter, 5u);
  // Nothing else changes, and the plan is the shared mapping the fault
  // sweep and the bisector call directly.
  sim::MachineConfig expected;
  expected.cores = 4;
  expected.fault_plan = fault_plan(0.4, 9, 5);
  EXPECT_EQ(sim::machine_config_digest(mcfg),
            sim::machine_config_digest(expected));
  EXPECT_FALSE(fault_plan(0.0, 9, 0).enabled);
}

TEST(SimMachineConfig, MachineFlagsLandInTheConfig) {
  const sim::MachineConfig sockets =
      sim_machine_config(parse_flags({"--sockets", "2"}), 4, /*sockets=*/1);
  EXPECT_EQ(sockets.sockets, 2);
}

}  // namespace
}  // namespace sbq::bench
