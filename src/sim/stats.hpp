// sim::Stats — the simulator's metrics registry.
//
// One Stats instance per Machine collects, while the simulation runs:
//   * protocol counters (GetS/GetM issues, Fwd-GetS/Fwd-GetM, Inv, Inv-Ack,
//     write-backs);
//   * HTM counters: TxCAS calls and successes, transactional attempts,
//     commits, abort causes broken down by the paper's §3 taxonomy
//     (conflict, capacity, tripped writer, explicit), the §3.4.1 fix
//     engaging, fallbacks, and a retry histogram (attempts needed per
//     TxCAS call);
//   * queue-level basket counters fed by the simulated SBQ (append
//     won/lost, basket close events with occupancy, extraction outcomes).
//
// Every protocol and HTM hook is attributed to the acting core and counted
// once, in that core's row of the per-core table; the machine-wide totals
// are the rows summed when read. So a figure's claim ("the losers abort on
// back-to-back invalidations") can be traced to exact event counts — see
// docs/observability.md for the full taxonomy and how each counter maps to
// the paper's terminology.
//
// Overhead: collection is plain counter increments, always on. The
// discrete-event engine itself has no hooks at all — its fast path is
// byte-for-byte the one engine_microbench gates.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace sbq::sim {

// HTM abort causes, mapped to the paper's §3/§4 terminology:
//   kConflict      — requester-wins data conflict (an Inv or Fwd-GetM hit
//                    the transaction's footprint; §3.3 "concurrent aborts").
//   kCapacity      — transactional footprint overflow. The simulated TxCAS
//                    touches a single line, so this never fires; it is kept
//                    so reports share one schema with real-HTM runs.
//   kTrippedWriter — a Fwd-GetS hit the commit window (§3.4).
//   kExplicit      — _xabort(1): the value check failed inside the
//                    transaction (Algorithm 1's self-abort).
//   kInterrupt     — timer interrupt / context switch hit the transaction.
//                    In the simulator this only arises from fault injection
//                    (MachineConfig::fault_plan).
//   kSpurious      — unexplained abort (real HTM reports these; injection
//                    only).
enum class AbortCause : std::uint8_t {
  kConflict = 0,
  kCapacity = 1,
  kTrippedWriter = 2,
  kExplicit = 3,
  kInterrupt = 4,
  kSpurious = 5,
};
// The §3 taxonomy the protocol itself can produce — always serialized to
// JSON. The injected causes above it are serialized only when the machine
// ran with fault injection enabled, so default artifacts stay byte-stable.
inline constexpr int kBaseAbortCauseCount = 4;
inline constexpr int kAbortCauseCount = 6;
const char* abort_cause_name(AbortCause c) noexcept;

// Coherence-protocol event counts. Each event is counted exactly once, at
// the acting core (see docs/observability.md for the attribution rules).
struct ProtocolCounters {
  std::uint64_t gets = 0;      // GetS requests issued (read misses)
  std::uint64_t getm = 0;      // GetM requests issued (write/RMW misses)
  std::uint64_t fwd_gets = 0;  // Fwd-GetS received by an owner
  std::uint64_t fwd_getm = 0;  // Fwd-GetM received by an owner (hand-off)
  std::uint64_t inv = 0;       // Inv received by a sharer
  std::uint64_t inv_ack = 0;   // Inv-Ack received by a requester
  std::uint64_t wb_data = 0;   // WB-Data sent on an M->O downgrade

  template <class V>
  void fields(V& v) {
    v("gets", gets);
    v("getm", getm);
    v("fwd_gets", fwd_gets);
    v("fwd_getm", fwd_getm);
    v("inv", inv);
    v("inv_ack", inv_ack);
    v("wb_data", wb_data);
  }
};

// HTM/TxCAS counters (per core; Stats::htm() sums them).
struct HtmCounters {
  std::uint64_t calls = 0;      // TxCAS invocations
  std::uint64_t successes = 0;  // calls that returned true (a commit or a
                                // successful fallback CAS)
  std::uint64_t attempts = 0;   // transactional attempts started
  std::uint64_t commits = 0;    // attempts that committed
  std::uint64_t fallbacks = 0;  // plain-CAS fallback taken (wait-freedom)
  // Graceful degradation: plain-CAS fallback taken early because the call
  // accumulated TxCasConfig::max_nonconflict_aborts non-conflict aborts
  // (capacity/interrupt/spurious) — disjoint from `fallbacks`.
  std::uint64_t fallback_cas = 0;
  std::uint64_t uarch_fix_stalls = 0;  // §3.4.1 fix engaged
  std::array<std::uint64_t, kAbortCauseCount> aborts{};
  // Conflict aborts taken in the nested (read/delay) phase, Figure 2b's
  // concurrent aborts: a subset of aborts[kConflict].
  std::uint64_t read_conflicts = 0;

  // Retry histogram: bucket i counts TxCAS calls resolved after exactly
  // i+1 transactional attempts; the last bucket collects calls needing
  // >= kRetryBuckets attempts (including fallback-resolved calls).
  static constexpr int kRetryBuckets = 17;
  std::array<std::uint64_t, kRetryBuckets> retry_histogram{};

  std::uint64_t aborts_total() const noexcept {
    std::uint64_t n = 0;
    for (std::uint64_t a : aborts) n += a;
    return n;
  }

  // Blob order. The JSON "htm" block keeps its own order (aborts after
  // commits) and leaves out successes and read_conflicts, so
  // metrics_to_json writes it by hand.
  template <class V>
  void fields(V& v) {
    v("calls", calls);
    v("successes", successes);
    v("attempts", attempts);
    v("commits", commits);
    v("fallbacks", fallbacks);
    v("fallback_cas", fallback_cas);
    v("uarch_fix_stalls", uarch_fix_stalls);
    v("aborts", aborts);
    v("read_conflicts", read_conflicts);
    v("retry_histogram", retry_histogram);
  }
};

// Queue-level basket dynamics, fed by the simulated SBQ (§5). "Occupancy"
// of a close event is the number of cells holding a real element when the
// basket's empty bit was set.
struct BasketCounters {
  std::uint64_t appends_won = 0;    // try_append CAS/TxCAS succeeded
  std::uint64_t appends_lost = 0;   // lost the append race (joined a basket)
  std::uint64_t stale_tails = 0;    // try_append saw tail->next != NULL
  std::uint64_t closes = 0;         // baskets sealed (empty bit set)
  std::uint64_t occupancy_sum = 0;  // summed over close events
  std::uint64_t occupancy_min = UINT64_MAX;
  std::uint64_t occupancy_max = 0;
  std::uint64_t extracted = 0;      // swaps that yielded a real element
  std::uint64_t empty_swaps = 0;    // swaps that hit an unfilled cell
  std::uint64_t node_reuses = 0;    // failed appender's node recycled
  std::uint64_t fresh_allocs = 0;   // baskets initialized from scratch

  template <class V>
  void fields(V& v) {
    v("appends_won", appends_won);
    v("appends_lost", appends_lost);
    v("stale_tails", stale_tails);
    v("closes", closes);
    v("occupancy_sum", occupancy_sum);
    v("occupancy_min", occupancy_min);
    v("occupancy_max", occupancy_max);
    v("extracted", extracted);
    v("empty_swaps", empty_swaps);
    v("node_reuses", node_reuses);
    v("fresh_allocs", fresh_allocs);
  }
};

// Contention-policy delay counters (common/contention.hpp), machine-wide:
// the cycles every TxCAS spent in its intra-transaction and post-abort
// delays. Carried in the snapshot blob and in MetricsSnapshot (the
// benchmark harness reads them); no JSON artifact prints them.
struct PolicyCounters {
  std::uint64_t intra_delay_cycles = 0;  // policy-issued intra-txn delay
  std::uint64_t post_delay_cycles = 0;   // policy-issued post-abort delay

  template <class V>
  void fields(V& v) {
    v("intra_delay_cycles", intra_delay_cycles);
    v("post_delay_cycles", post_delay_cycles);
  }
};

// Fault-injection counters (all zero — and not serialized — unless the
// machine ran with MachineConfig::fault_plan enabled).
struct FaultCounters {
  std::uint64_t injected_capacity = 0;   // injected capacity aborts
  std::uint64_t injected_interrupt = 0;  // injected interrupt aborts
  std::uint64_t injected_spurious = 0;   // injected spurious aborts
  std::uint64_t jittered_messages = 0;   // messages that drew extra latency
  std::uint64_t jitter_cycles = 0;       // total extra cycles added

  std::uint64_t injected_total() const noexcept {
    return injected_capacity + injected_interrupt + injected_spurious;
  }

  // JSON only: the machine derives these at metrics() time, so no blob
  // carries them.
  template <class V>
  void fields(V& v) {
    v("injected_capacity", injected_capacity);
    v("injected_interrupt", injected_interrupt);
    v("injected_spurious", injected_spurious);
    v("jittered_messages", jittered_messages);
    v("jitter_cycles", jitter_cycles);
  }
};

// One machine's counters flattened into a copyable value — what a sweep
// cell carries into BENCH_*.json (see benchsupport/BenchReport).
struct MetricsSnapshot {
  ProtocolCounters protocol;
  HtmCounters htm;
  BasketCounters basket;
  std::uint64_t messages = 0;   // interconnect messages delivered
  // kLink interconnect: cross-socket messages and the cycles they spent
  // queued behind earlier link traffic (both zero under kFlat).
  std::uint64_t link_messages = 0;
  std::uint64_t link_wait_cycles = 0;
  std::uint64_t events = 0;     // engine events processed
  Time final_time = 0;          // simulated cycles at snapshot
  // Config-derived (not data-derived) flag: true iff the machine ran with
  // fault injection enabled. Gates the extra JSON fields so that default
  // runs serialize exactly as before (golden byte-identity).
  bool fault_injection = false;
  FaultCounters faults;
  PolicyCounters policy;
};

// One core's row of the registry: the only copy of its protocol and
// TxCAS counts.
struct CoreCounters {
  ProtocolCounters protocol;
  HtmCounters htm;

  template <class V>
  void fields(V& v) {
    v("protocol", protocol);
    v("htm", htm);
  }
};

class Stats {
 public:
  // `cores` sizes the per-core table.
  explicit Stats(int cores);

  // ---- protocol hooks (called from the core/cache layer) ----
  void on_request(CoreId core, bool want_m);  // GetS / GetM issued
  void on_fwd(CoreId owner, bool getm);       // Fwd-Get[S|M] received
  void on_inv(CoreId sharer);                 // Inv received
  void on_inv_ack(CoreId requester);          // Inv-Ack received
  void on_wb(CoreId owner);                   // WB-Data sent

  // ---- HTM hooks (called from the TxCAS state machine) ----
  void on_txcas_call(CoreId c);
  void on_txn_attempt(CoreId c);
  void on_txn_commit(CoreId c);
  // `read_phase`: a conflict caught in the nested (read/delay) phase.
  void on_txn_abort(CoreId c, AbortCause cause, bool read_phase);
  void on_txn_fallback(CoreId c);
  void on_fallback_cas(CoreId c);  // degraded to plain CAS (non-conflict K)
  void on_uarch_fix_stall(CoreId c);
  // Call resolution: `attempts` transactional attempts were used (feeds
  // the retry histogram; fallback-resolved calls land in the last bucket),
  // and the call returned `success`.
  void on_txcas_done(CoreId c, int attempts, bool success);

  // ---- contention-policy hook (called from the TxCAS state machine) ----
  // One policy-issued delay (`intra` selects the counter), in cycles.
  void on_policy_delay(bool intra, Time cycles);

  // ---- basket hooks (called from the simulated SBQ) ----
  void on_basket_append(bool won);
  void on_basket_stale_tail();
  void on_basket_close(std::uint64_t occupancy);
  void on_basket_extract(bool got_element);
  void on_basket_node(bool reused);

  // ---- views ----
  // Machine-wide totals: the per-core rows summed.
  ProtocolCounters protocol() const;
  HtmCounters htm() const;
  const ProtocolCounters& core_protocol(CoreId c) const {
    return cores_.at(static_cast<std::size_t>(c)).protocol;
  }
  const HtmCounters& core_htm(CoreId c) const {
    return cores_.at(static_cast<std::size_t>(c)).htm;
  }
  const BasketCounters& basket() const noexcept { return basket_; }
  const PolicyCounters& policy() const noexcept { return policy_; }

  int core_count() const noexcept { return static_cast<int>(cores_.size()); }

  // Blob order (sim/serialize.cpp). Decode takes the per-core table's
  // length from the blob and refuses one that differs from the config's
  // core count.
  template <class V>
  void fields(V& v) {
    v("basket", basket_);
    v("policy", policy_);
    v("cores", cores_);
  }

 private:
  CoreCounters& row(CoreId c) {
    return cores_.at(static_cast<std::size_t>(c));
  }

  BasketCounters basket_;
  PolicyCounters policy_;
  std::vector<CoreCounters> cores_;
};

}  // namespace sbq::sim
