// Example: driving the coherence simulator directly.
//
// The simulator is a first-class part of this library's public API: it lets
// you watch the cache-coherence dynamics of §3 of the paper at message
// granularity. This example runs a tiny 4-core contention scenario twice —
// once with standard CAS, once with TxCAS — with protocol tracing enabled,
// and prints the message timeline for the contended word.
//
// Run: ./build/examples/sim_explorer [cores]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "sim/machine.hpp"

using namespace sbq::sim;

namespace {

void run_scenario(int cores, bool use_txcas) {
  MachineConfig cfg;
  cfg.cores = cores;
  cfg.record_trace = true;
  Machine m(cfg);
  const Addr x = m.alloc();

  // Warm every core's cache so all start from Shared state, like Figure 2.
  for (int c = 0; c < cores; ++c) {
    m.spawn([](Machine& m, int c, Addr x) -> Task<void> {
      co_await m.core(c).load(x);
    }(m, c, x));
  }
  m.run();
  m.trace().clear();

  std::printf("\n=== %s, %d cores, one contended round ===\n",
              use_txcas ? "TxCAS (HTM)" : "standard CAS", cores);
  for (int c = 0; c < cores; ++c) {
    m.spawn([](Machine& m, int c, Addr x, bool use_txcas) -> Task<void> {
      if (use_txcas) {
        TxCasConfig tx;
        tx.intra_txn_delay = 30;
        const bool ok = co_await m.core(c).txcas(x, 0, Value(c) + 1, tx);
        std::printf("[%6lu] core %d txcas -> %s\n",
                    static_cast<unsigned long>(m.engine().now()), c,
                    ok ? "SUCCESS" : "failed");
      } else {
        const Value ok = co_await m.core(c).cas(x, 0, Value(c) + 1);
        std::printf("[%6lu] core %d cas   -> %s\n",
                    static_cast<unsigned long>(m.engine().now()), c,
                    ok ? "SUCCESS" : "failed");
      }
    }(m, c, x, use_txcas));
  }
  m.run();

  std::printf("--- protocol trace (addr %lu) ---\n",
              static_cast<unsigned long>(x));
  m.trace().print(std::cout, x);

  std::printf("--- per-core stats ---\n");
  for (int c = 0; c < cores; ++c) {
    const HtmCounters& s = m.stats().core_htm(c);
    std::printf("core %d: txcas attempts %lu, nested aborts %lu, tripped %lu\n",
                c, static_cast<unsigned long>(s.attempts),
                static_cast<unsigned long>(s.read_conflicts),
                static_cast<unsigned long>(s.aborts[static_cast<std::size_t>(
                    AbortCause::kTrippedWriter)]));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int cores = argc > 1 ? std::atoi(argv[1]) : 4;
  run_scenario(cores, /*use_txcas=*/false);
  run_scenario(cores, /*use_txcas=*/true);
  std::printf("\nNote how the standard-CAS round serializes Fwd-GetM "
              "hand-offs, while the\nTxCAS round aborts all losers with "
              "back-to-back invalidations (Figure 2 of\nthe paper).\n");
  return 0;
}
