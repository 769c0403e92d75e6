// Parallel sweep runner for the figure-reproduction benchmarks.
//
// Every sweep cell — one (row, column, repeat) point of a figure — is an
// independent, deterministic, single-threaded simulation on its own
// sim::Machine, so cells can run concurrently on a fixed-size pool of real
// threads. Results are keyed by cell index (row-major), never by completion
// order, so the emitted tables are byte-identical to a serial run for the
// same seed regardless of scheduling.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace sbq {

// Worker count used when the caller does not pass --jobs:
// std::thread::hardware_concurrency(), at least 1.
int default_sweep_jobs();

// Runs `rows * cells_per_row` independent cells on `jobs` worker threads
// (jobs <= 1 runs everything inline on the calling thread — serial mode).
//
// cell(i) is invoked exactly once for each index i in [0, rows *
// cells_per_row); cells run concurrently, so each must confine its writes
// to state owned by index i (e.g. a slot in a pre-sized results vector).
// Cell index i belongs to row i / cells_per_row (row-major).
//
// on_row_done(row), if non-null, is invoked on the *calling* thread in
// strict row order 0..rows-1, as soon as every cell of that row has
// completed — this is what lets drivers stream finished table rows while
// later rows are still simulating. Workers are handed cells in row-major
// order, so early rows tend to finish (and print) first.
//
// The first exception thrown by any cell is rethrown on the calling thread
// after the pool drains; remaining on_row_done callbacks are skipped.
void run_sweep_cells(std::size_t rows, std::size_t cells_per_row, int jobs,
                     const std::function<void(std::size_t)>& cell,
                     const std::function<void(std::size_t)>& on_row_done);

// Convenience overload: no row streaming.
inline void run_sweep_cells(std::size_t rows, std::size_t cells_per_row,
                            int jobs,
                            const std::function<void(std::size_t)>& cell) {
  run_sweep_cells(rows, cells_per_row, jobs, cell, nullptr);
}

// Group-level scheduling: one work item per (row, group) instead of per
// cell. The worker that claims a group first calls warm_group(g) — e.g. to
// prefill a machine and take a Machine::snapshot — then runs that group's
// `cells_per_group` cells back-to-back on the same thread, so per-group
// warm-up work happens once per group instead of once per cell (the sweep
// checkpoint/fork optimization). Group g belongs to row g / groups_per_row;
// warm state is communicated through caller-owned slots indexed by g (each
// group's slot is touched by exactly one worker).
//
// on_row_done and the exception semantics match run_sweep_cells.
void run_sweep_groups(
    std::size_t rows, std::size_t groups_per_row, std::size_t cells_per_group,
    int jobs, const std::function<void(std::size_t)>& warm_group,
    const std::function<void(std::size_t, std::size_t)>& cell,
    const std::function<void(std::size_t)>& on_row_done);

// The results of a (row × column × repeat) sweep, one R per cell, stored
// row-major. at() is the one place coordinates map to a cell, so drivers
// read cells in whatever order they emit them.
template <typename R>
struct SweepGrid {
  std::vector<R> cells;
  std::size_t columns = 0;
  std::size_t repeats = 0;

  const R& at(std::size_t row, std::size_t col, std::size_t rep) const {
    return cells[(row * columns + col) * repeats + rep];
  }
  R& at(std::size_t row, std::size_t col, std::size_t rep) {
    return cells[(row * columns + col) * repeats + rep];
  }
};

// Runs every cell of a rows × columns × repeats grid on `jobs` workers and
// returns the grid. cell(row, col, rep) returns the cell's R and runs
// concurrently with other cells, so it must write no shared state.
// row_done(row, grid) runs on the calling thread, in row order, as soon as
// every cell of `row` has finished (run_sweep_cells's on_row_done).
template <typename Cell, typename RowDone>
auto run_grid(std::size_t rows, std::size_t columns, std::size_t repeats,
              int jobs, Cell cell, RowDone row_done) {
  using R = std::invoke_result_t<Cell&, std::size_t, std::size_t, std::size_t>;
  SweepGrid<R> grid{std::vector<R>(rows * columns * repeats), columns, repeats};
  run_sweep_cells(
      rows, columns * repeats, jobs,
      [&](std::size_t i) {
        const std::size_t row = i / (columns * repeats);
        const std::size_t col = i / repeats % columns;
        const std::size_t rep = i % repeats;
        grid.at(row, col, rep) = cell(row, col, rep);
      },
      [&](std::size_t row) { row_done(row, std::as_const(grid)); });
  return grid;
}

}  // namespace sbq
