// Fundamental types and configuration for the coherence simulator.
//
// The simulator models the machine of §3.1 of the paper: a multi-core (and
// optionally multi-socket) processor with private caches, a shared LLC with
// an MSI directory, and a point-to-point interconnect that supports multiple
// in-flight messages. Time is measured in cycles; one simulated word maps to
// one cache line (the algorithms pad contended variables anyway).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/contention.hpp"

namespace sbq::sim {

using Addr = std::uint64_t;   // word address; one word per cache line
using Value = std::uint64_t;  // 64-bit memory words (§2 "Atomic primitives")
using Time = std::uint64_t;   // cycles
using CoreId = int;

inline constexpr Addr kNullAddr = 0;  // sim code treats address 0 as NULL

// Field lists. Every schedule-visible state or counter struct (this
// file's configs, the counters in stats.hpp, CoreStats and Core::State,
// Directory::State, Interconnect::State, Engine::Checkpoint) names its
// fields once, in snapshot blob order, in a member
//
//   template <class V> void fields(V& v) { v("name", member); ... }
//
// where an enum member passes its value count too: v("kind", kind, count).
// The snapshot codec (serialize.cpp), machine_config_digest and the JSON
// counters (benchsupport/metrics_json.hpp) are visitors over these lists,
// so adding a field takes its declaration and one line in its struct's
// list. visit_fields walks a const struct, for visitors that only read.
template <class T, class V>
void visit_fields(const T& t, V& v) {
  const_cast<T&>(t).fields(v);
}

// Interconnect topology model (selected via MachineConfig).
//
//   kFlat — the original latency matrix: every hop costs intra_latency or
//           inter_latency, bandwidth is unlimited. Cheap and sufficient for
//           single-socket sweeps (there is no cross-socket traffic to
//           contend for).
//   kLink — per-socket-pair link objects with finite bandwidth: each
//           directed cross-socket link serializes messages (one every
//           link_occupancy cycles) through a FIFO occupancy queue, so a
//           message's delay is inter_latency plus however long the link's
//           queue makes it wait. Intra-socket messages still use the flat
//           intra_latency (the on-chip mesh is not the bottleneck §3.1
//           models). This is what lets ablation_numa capture *contention*
//           on the socket link rather than just the added hop cost.
enum class InterconnectModel : std::uint8_t { kFlat, kLink };
inline constexpr int kInterconnectModelCount = 2;

// Kinds of HTM abort the fault-injection layer can force into an in-flight
// simulated transaction. The simulator's protocol only ever produces
// conflict aborts on its own; real HTM additionally aborts on footprint
// overflow (capacity), timer interrupts/context switches, and for
// unexplained ("spurious") reasons — the cases the paper's fallback
// argument (§4 "Progress") has to survive.
enum class FaultKind : std::uint8_t { kCapacity, kInterrupt, kSpurious };
inline constexpr int kFaultKindCount = 3;

// Deterministic, seedable fault-injection plan (off by default — a default
// plan leaves every simulated schedule and every golden byte-identical).
//
// Rate-based injection draws once per transactional attempt from a
// per-core SplitMix64 stream seeded from (seed, core id); at most one fault
// fires per attempt, at a deterministic offset inside the attempt's
// vulnerability window. Message jitter draws per interconnect message from
// a dedicated stream. All streams fork with Machine::snapshot(), so forked
// repeats replay byte-identically.
struct FaultPlan {
  bool enabled = false;     // master switch; false ⇒ zero schedule impact
  std::uint64_t seed = 1;   // root of every injection RNG stream
  // Per-transactional-attempt abort probabilities in [0, 1] (summed: at
  // most one injected abort per attempt).
  double capacity_rate = 0.0;
  double interrupt_rate = 0.0;
  double spurious_rate = 0.0;
  // Bounded message-latency jitter: with probability `message_jitter_rate`
  // a message's delivery is delayed by a uniform 1..max_message_jitter
  // extra cycles. Jitter only ever adds latency and per-(src,dst) FIFO
  // order is preserved (arrival times are clamped to be monotone per
  // pair), so every jittered schedule is protocol-legal.
  double message_jitter_rate = 0.0;
  Time max_message_jitter = 0;

  bool rates_active() const noexcept {
    return enabled &&
           (capacity_rate > 0 || interrupt_rate > 0 || spurious_rate > 0);
  }
  bool jitter_active() const noexcept {
    return enabled && message_jitter_rate > 0 && max_message_jitter > 0;
  }

  template <class V>
  void fields(V& v) {
    v("enabled", enabled);
    v("seed", seed);
    v("capacity_rate", capacity_rate);
    v("interrupt_rate", interrupt_rate);
    v("spurious_rate", spurious_rate);
    v("message_jitter_rate", message_jitter_rate);
    v("max_message_jitter", max_message_jitter);
  }
};

// Machine-wide timing and topology parameters. Defaults approximate the
// paper's Broadwell (§3.2 cites 15–30 cycles per message delay; QPI hops
// are several times that).
struct MachineConfig {
  int cores = 44;
  int sockets = 1;          // cores are split evenly across sockets
  Time intra_latency = 40;  // message delay within a socket [cycles]
  Time inter_latency = 160; // message delay across sockets [cycles]
  InterconnectModel interconnect_model = InterconnectModel::kFlat;
  // kLink only: cycles a directed cross-socket link is held per message
  // (the inverse of its bandwidth). A QPI-class link moves a 64-byte
  // flit train in a handful of cycles; 16 makes two back-to-back remote
  // messages visibly queue without dominating the 160-cycle hop.
  Time link_occupancy = 16;
  Time dir_occupancy = 3;   // directory per-request processing time
  Time hit_latency = 1;     // cache hit
  Time rmw_latency = 8;     // read-modify-write execute cost once owned
  bool uarch_fix = false;   // §3.4.1: stall Fwd-GetS of a committing txn
  bool record_trace = false;
  // Bounded event-trace ring: once `trace_capacity` events are buffered the
  // oldest are overwritten (Trace::dropped() reports how many).
  std::size_t trace_capacity = std::size_t{1} << 20;
  // Fault injection (docs/robustness.md). Disabled by default: with the
  // default plan every driver's output is byte-identical to tests/golden/.
  FaultPlan fault_plan;
  // Runtime coherence invariant checker: after every delivered protocol
  // message, verify SWMR and directory/cache consistency (O(lines × cores)
  // per message — always compiled, opt-in). A violation dumps the debug
  // ring to stderr and throws std::logic_error instead of silently
  // simulating on corrupt state.
  bool check_invariants = false;

  template <class V>
  void fields(V& v) {
    v("cores", cores);
    v("sockets", sockets);
    v("intra_latency", intra_latency);
    v("inter_latency", inter_latency);
    v("interconnect_model", interconnect_model, kInterconnectModelCount);
    v("link_occupancy", link_occupancy);
    v("dir_occupancy", dir_occupancy);
    v("hit_latency", hit_latency);
    v("rmw_latency", rmw_latency);
    v("uarch_fix", uarch_fix);
    v("record_trace", record_trace);
    v("trace_capacity", trace_capacity);
    // Slot of the deleted stats-off mode (since schema 10): the metrics
    // registry is always on, so the blob and the config digest always
    // carry true here.
    bool collect_stats = true;
    v("collect_stats", collect_stats);
    v("fault_plan", fault_plan);
    v("check_invariants", check_invariants);
  }
};
// Plain data: each core, the interconnect and every snapshot keep their
// own copy, and copying one must not allocate.
static_assert(std::is_trivially_copyable_v<MachineConfig>);

// TxCAS tuning (§4.1, §4.2). Cycle values assume 0.4 ns/cycle, so the
// paper's 270 ns intra-transaction delay is ~675 cycles.
struct TxCasConfig {
  Time intra_txn_delay = 675;
  Time post_abort_delay = 130;  // covers an intra-socket Inv/Ack round trip
  // Then fall back to a plain CAS (wait-freedom). The default is the
  // cross-backend constant native TxCAS also uses (common/contention.hpp).
  int max_attempts = static_cast<int>(kDefaultMaxTxnAttempts);
  // Graceful degradation: after this many NON-conflict aborts (capacity /
  // interrupt / spurious — in the simulator these only arise from fault
  // injection) within one TxCAS call, stop retrying transactionally and
  // degrade to a plain CAS immediately. Retrying past persistent
  // non-conflict aborts buys nothing: a capacity abort recurs
  // deterministically and interrupt storms starve the commit window. The
  // degraded path is counted separately (`fallback_cas`) from the
  // attempt-budget fallback (`fallbacks`). 0 disables degradation. The
  // default is the shared cross-backend constant (common/contention.hpp).
  int max_nonconflict_aborts =
      static_cast<int>(kDefaultNonconflictAbortBudget);
};

// The policy object a per-op TxCasConfig resolves to — the exact
// construction Core::start_txcas uses. Exposed so the cross-backend
// differential test can drive the sim's decision logic directly against
// the native one.
inline ContentionPolicy make_contention_policy(
    const TxCasConfig& cfg) noexcept {
  return ContentionPolicy(
      ContentionKnobs{cfg.intra_txn_delay, cfg.post_abort_delay,
                      static_cast<std::uint32_t>(cfg.max_attempts < 0
                                                     ? 0
                                                     : cfg.max_attempts),
                      static_cast<std::uint32_t>(
                          cfg.max_nonconflict_aborts < 0
                              ? 0
                              : cfg.max_nonconflict_aborts)});
}

}  // namespace sbq::sim
