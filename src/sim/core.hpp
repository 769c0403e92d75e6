// A simulated core with its private cache.
//
// The core executes one simulated thread (a coroutine); its memory
// operations are awaitables that drive the coherence protocol:
//
//   load/store        — GetS / GetM on miss, hit otherwise
//   cas/faa/swap      — §3.2 semantics: acquire M ownership, stall incoming
//                       forwards until the RMW completes (the serialized
//                       hand-off chain of Figure 2a)
//   txcas             — §4's TxCAS as an HTM transaction: shared-state read,
//                       intra-transaction delay, exclusive-state write;
//                       requester-wins conflicts; nested-abort distinction;
//                       post-abort delay + re-check; bounded retries with a
//                       plain-CAS fallback (wait-freedom)
//   think             — local computation (no memory traffic)
//   poll_until        — the plain `load; test; think(gap)` spin loop, with
//                       the hits skipped: while the polled line stays valid
//                       its value cannot change, so the core parks on it
//                       and schedules nothing until the line is lost
//
// Protocol reactions implemented in cache.cpp:
//   * Inv on a transactionally read line → concurrent abort (Figure 2b)
//   * Fwd-GetS on a line with a pending transactional GetM → tripped writer
//     (Figure 3); with MachineConfig::uarch_fix the forward is stalled until
//     commit instead (§3.4.1)
//   * Fwd-GetM during any pending request → stalled until the request and
//     its operation complete (the §3.2 stall that serializes RMWs)
//
// The thread issues its operations one at a time, so the core keeps one
// operation record (op_): the awaiters fill it, a hit resolves with one
// request-slot check and one line lookup, and a completion event is a
// typed kAccessDone that carries only the core id. Every request of an operation is on its address, so the
// core also keeps one request slot (req_): a second acquire of that line
// parks as a waiter until the request is released. A request, or an
// acquire parked behind one, names what it resumes with a continuation tag
// (plus a TxCAS attempt's token) instead of a closure.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_vec.hpp"
#include "sim/interconnect.hpp"
#include "sim/line_table.hpp"
#include "sim/message.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace sbq::sim {

class Trace;

struct CoreStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t rmws = 0;
  std::uint64_t txcas_calls = 0;
  std::uint64_t txcas_success = 0;
  std::uint64_t txcas_fail = 0;
  std::uint64_t txcas_attempts = 0;     // transactional attempts started
  std::uint64_t nested_aborts = 0;      // conflict during read/delay phase
  std::uint64_t tripped_aborts = 0;     // Fwd-GetS hit the commit window
  std::uint64_t uarch_fix_stalls = 0;   // §3.4.1 fix engaged
  std::uint64_t self_aborts = 0;        // value mismatch inside the txn
  std::uint64_t fallbacks = 0;          // plain-CAS fallback taken
  // Fault injection (zero unless MachineConfig::fault_plan fires here):
  std::uint64_t injected_capacity = 0;
  std::uint64_t injected_interrupt = 0;
  std::uint64_t injected_spurious = 0;
  // Graceful degradation: plain-CAS taken after K non-conflict aborts
  // (TxCasConfig::max_nonconflict_aborts) — disjoint from `fallbacks`.
  std::uint64_t fallback_cas = 0;

  bool operator==(const CoreStats&) const = default;

  template <class V>
  void fields(V& v) {
    v("loads", loads);
    v("stores", stores);
    v("rmws", rmws);
    v("txcas_calls", txcas_calls);
    v("txcas_success", txcas_success);
    v("txcas_fail", txcas_fail);
    v("txcas_attempts", txcas_attempts);
    v("nested_aborts", nested_aborts);
    v("tripped_aborts", tripped_aborts);
    v("uarch_fix_stalls", uarch_fix_stalls);
    v("self_aborts", self_aborts);
    v("fallbacks", fallbacks);
    v("injected_capacity", injected_capacity);
    v("injected_interrupt", injected_interrupt);
    v("injected_spurious", injected_spurious);
    v("fallback_cas", fallback_cas);
  }
};

class Core {
 public:
  // The core's cached copies live in `lines`, the machine's line table.
  Core(CoreId id, Engine& engine, Interconnect& net, LineTable& lines,
       const MachineConfig& cfg, Trace* trace, Stats* metrics = nullptr);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  CoreId id() const noexcept { return id_; }
  Time now() const noexcept { return engine_.now(); }
  const CoreStats& stats() const noexcept { return state_.stats; }
  // Metrics registry this core reports into (null when stats are off).
  Stats* metrics() const noexcept { return metrics_; }

  // Message arrival (a kDeliver event).
  void handle(const Message& msg);
  // The record's access completes (a kAccessDone event, scheduled by
  // access()): release the line's request, then resume what waits on it.
  void complete_access();

  // Fault injection entry point (Machine one-shots; rate-based injection is
  // internal). Aborts the in-flight transaction with the given cause — a
  // no-op when the core is not mid-transaction, like a real timer interrupt
  // landing between transactions.
  void inject_fault(FaultKind kind);

  // ---- awaitables for coroutine programs ----
  // Each awaiter fills the operation record (op_) and starts it;
  // await_resume reads the result off the record.
  enum class OpKind : std::uint8_t {
    kLoad,
    kStore,
    kCas,         // a0 = expected, a1 = desired; result 1/0
    kFaa,         // a0 = addend; result = old value
    kSwap,        // a0 = new value; result = old value
    kTxCas,       // a0 = expected, a1 = desired; result 1/0
    kTxLoad,      // TxCAS's post-abort re-read of its line
    kTxFallback,  // TxCAS's plain-CAS fallback (a CAS on a0/a1)
    kPoll,        // poll_until's load of its line
  };
  struct ValueAwaiter {
    Core* core;
    OpKind kind;
    Addr addr;
    Value a0, a1;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core->start_access(kind, addr, a0, a1, h);
    }
    Value await_resume() const noexcept { return core->op_.result; }
  };
  struct StoreAwaiter {
    Core* core;
    Addr addr;
    Value v;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core->start_access(OpKind::kStore, addr, v, 0, h);
    }
    void await_resume() const noexcept {}
  };
  struct ThinkAwaiter {
    Core* core;
    Time cycles;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core->engine_.schedule(cycles == 0 ? 1 : cycles, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  struct TxCasAwaiter {
    Core* core;
    Addr addr;
    Value expected, desired;
    TxCasConfig cfg;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core->start_txcas(addr, expected, desired, cfg, h);
    }
    bool await_resume() const noexcept { return core->op_.result != 0; }
  };
  struct PollAwaiter {
    Core* core;
    Addr addr;
    Value at_least;
    Time gap;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      core->start_poll(addr, at_least, gap, h);
    }
    Value await_resume() const noexcept { return core->op_.result; }
  };

  ValueAwaiter load(Addr a) { return {this, OpKind::kLoad, a, 0, 0}; }
  ValueAwaiter cas(Addr a, Value expected, Value desired) {
    return {this, OpKind::kCas, a, expected, desired};
  }
  ValueAwaiter faa(Addr a, Value delta) {
    return {this, OpKind::kFaa, a, delta, 0};
  }
  ValueAwaiter swap(Addr a, Value v) { return {this, OpKind::kSwap, a, v, 0}; }
  StoreAwaiter store(Addr a, Value v) { return {this, a, v}; }
  ThinkAwaiter think(Time cycles) { return {this, cycles}; }
  TxCasAwaiter txcas(Addr a, Value expected, Value desired,
                     TxCasConfig cfg = {}) {
    return {this, a, expected, desired, cfg};
  }
  // Spin on `a` until its value is at least `at_least`; completes with the
  // value that passed. Same schedule as the plain loop `for (;;) { v =
  // load(a); if (v >= at_least) break; think(gap); }`, minus the engine
  // events of its hits (see poll_step / poll_wake).
  PollAwaiter poll_until(Addr a, Value at_least, Time gap) {
    return {this, a, at_least, gap};
  }

  // Test/bench introspection.
  using LineState = sim::LineState;
  LineState line_state(Addr a) const { return lines_.core_state(a, id_); }
  bool has_pending(Addr a) const { return pending(a) != nullptr; }
  // A parked poll_until: the line it waits on and the plain loop's next
  // poll instant (for debug dumps and tests).
  bool poll_parked() const noexcept { return poll_.parked; }
  Addr poll_addr() const noexcept { return op_.addr; }
  Time poll_next() const noexcept { return poll_.next; }

  // True when the core holds no in-flight protocol or transaction state:
  // no pending request, no parked re-acquire, no active TxCAS, no
  // poll_until (parked or not). Only a quiescent core can be snapshotted —
  // everything else (stats, the delay-jitter PRNG) is plain value state,
  // and its cached copies are the machine's line table.
  bool quiescent() const noexcept {
    return !req_live_ && waiters_.empty() && !txn_.active && !poll_.active;
  }

  // Schedule-visible state for Machine::snapshot()/fork(); valid only at
  // quiescent(). The jitter PRNG is included because think()-delay jitter
  // draws from it in program order.
  struct State {
    CoreStats stats;
    std::uint64_t delay_jitter_state = 0x9e3779b97f4a7c15ULL;
    // Rate-based fault-injection PRNG (draws once per transactional
    // attempt); carried so forked repeats replay byte-identically.
    std::uint64_t fault_rng_state = 0;
    // Persistent contention-policy history (adaptive policies draw delays
    // from it in program order); carried for the same reason.
    ContentionPolicy::State policy_state;

    template <class V>
    void fields(V& v) {
      v("stats", stats);
      v("delay_jitter_state", delay_jitter_state);
      v("fault_rng_state", fault_rng_state);
      v("policy_state", policy_state);
    }
  };
  State save_state() const;
  void restore_state(const State& s);

 private:
  // The thread's current operation. Plain accesses run on it directly;
  // TxCAS and poll_until keep their extra state in txcas_op_ / poll_ and
  // switch `kind` to their own load or CAS while one is in flight.
  struct Op {
    OpKind kind = OpKind::kLoad;
    bool was_miss = false;  // the access completed a request of its own
    Addr addr = 0;
    Value a0 = 0, a1 = 0;
    Value result = 0;
    std::coroutine_handle<> thread;  // resumed when the operation completes
  };

  // What an acquired line resumes: the record's access, or one step of a
  // TxCAS attempt. The TxCAS steps carry their attempt's token, since a
  // request of an aborted attempt still completes (and must only release
  // the line) after the record has moved on.
  enum class Cont : std::uint8_t { kAccess, kTxRead, kTxWrite };

  // The core's outstanding coherence request (GetS or GetM). Forwards
  // stalled behind it wait in stalled_fwds_.
  struct Pending {
    bool want_m = false;
    bool got_data = false;
    Value data = 0;
    int acks_expected = -1;  // unknown until Data arrives
    int acks_got = 0;
    bool locked = false;            // completed, op executing: stall forwards
    bool inv_after_data = false;    // Inv arrived while GetS in flight
    CoreId deferred_inv_requester = -1;
    bool txn_write = false;         // this GetM carries a transactional write
    Cont cont = Cont::kAccess;
    std::uint64_t token = 0;
  };

  // An acquire that found its line's own request still in flight (e.g. the
  // background GetM of an aborted transaction); it re-runs, in parking
  // order, once that request is released. A stale write-acquire and a
  // retry's read-acquire can both wait on one line.
  struct Waiter {
    Addr addr = 0;
    bool want_m = false;
    Cont cont = Cont::kAccess;
    std::uint64_t token = 0;
  };

  // TxCAS transaction bookkeeping (one per core; cores run one thread).
  struct Txn {
    bool active = false;
    bool in_write_phase = false;
    Addr addr = 0;
    bool read_marked = false;  // addr is in the (single-line) read set
    std::uint64_t token = 0;   // generation; bumping cancels timers
  };

  // -- op plumbing (core.cpp) --
  void begin_op(OpKind kind, Addr a, Value a0, Value a1,
                std::coroutine_handle<> thread);
  void start_access(OpKind kind, Addr a, Value a0, Value a1,
                    std::coroutine_handle<> thread);
  // Store `result` in the record and resume the thread.
  void finish_op(Value result);
  // Ensure the line is present with the needed permission, then run `cont`
  // (synchronously within the completing event).
  void acquire(Addr a, bool want_m, Cont cont, std::uint64_t token);
  void resume(Cont cont, std::uint64_t token, Addr a, LineRecord& line,
              bool was_miss);
  void issue_request(Addr a, bool want_m, Cont cont, std::uint64_t token);
  // The in-flight request on `a`, or null.
  Pending* pending(Addr a) noexcept {
    return req_live_ && req_addr_ == a ? &req_ : nullptr;
  }
  const Pending* pending(Addr a) const noexcept {
    return req_live_ && req_addr_ == a ? &req_ : nullptr;
  }
  // Data and acks all in: install the line, resume the continuation.
  void finish_request(Addr a, Pending& p);
  void release_request(Addr a);      // op done: answer stalls, wake waiters
  void run_waiters(Addr a);
  // The record's access on its acquired line, then its completion event.
  void access(LineRecord& line, bool was_miss);

  // -- txcas state machine (core.cpp) --
  // The operands live in op_ (a0 = expected, a1 = desired); the rest of
  // the operation sits in this per-core slot.
  struct TxCasOp {
    TxCasConfig cfg;
    // The retry brain (common/contention.hpp): per-call counters (attempt
    // number, non-conflict aborts) live inside `policy`, re-armed by
    // start_txcas; state_.policy_state is the *persistent* per-core history
    // (failure level, jitter stream) that survives across calls and rides
    // through snapshot/fork via Core::State.
    ContentionPolicy policy;
  };
  void start_txcas(Addr a, Value expected, Value desired, TxCasConfig cfg,
                   std::coroutine_handle<> thread);
  void txcas_attempt();
  void txcas_on_read_ready(Addr a, std::uint64_t token, bool was_miss);
  void txcas_enter_write();
  void txcas_on_write_ready(Addr a, std::uint64_t token, bool was_miss);
  void txcas_commit();
  // Called from message handling on conflicts; `cause` attributes the abort
  // in the metrics registry (kind 0 = read/delay phase, 1 = write phase).
  void txcas_abort(int kind, AbortCause cause);
  void txcas_post_abort();
  void txcas_post_abort_loaded();
  // Plain-CAS fallback; `degraded` distinguishes the non-conflict-abort
  // degradation path (fallback_cas) from the attempt-budget one (fallbacks).
  void txcas_fallback(bool degraded);
  void txcas_fallback_done();
  // Deliver an injected abort to the in-flight transaction (no-op without
  // one). Maps FaultKind to AbortCause and counts per kind.
  void deliver_injected_fault(FaultKind kind);

  // -- poll_until (core.cpp) --
  // The polled address is op_.addr; the loop's own state sits here.
  struct PollOp {
    bool active = false;
    bool parked = false;   // line valid, value too low: no event scheduled
    Time gap = 1;          // think cycles between polls (>= 1)
    Time next = 0;         // parked: the plain loop's next poll instant
    Value at_least = 0;    // exit threshold on the polled value
  };
  void start_poll(Addr a, Value at_least, Time gap,
                  std::coroutine_handle<> thread);
  // One poll of the plain loop (its load starts now): park on a hit whose
  // value is below the threshold, else run the plain load.
  void poll_step();
  // The plain load completed with op_.result.
  void poll_loaded();
  // The parked line was lost: credit the skipped hits and schedule the
  // first poll that misses.
  void poll_wake();
  void poll_finish();

  // -- protocol message handling (cache.cpp) --
  void on_data(const Message& msg);
  void on_inv_ack(const Message& msg);
  void on_inv(const Message& msg);
  void on_fwd_gets(const Message& msg);
  void on_fwd_getm(const Message& msg);
  // Park a forward behind req_ until release_request answers it.
  void stall_fwd(const Message& msg);
  void answer_fwd_gets(const Message& msg);
  void answer_fwd_getm(const Message& msg);
  bool fwd_predates_pending_request(Addr a, const Pending& p) const;
  // True if the message concerns a line in the transaction's footprint and
  // the transaction must abort (requester-wins). Every path that takes all
  // permissions away (Inv, Fwd-GetM, deferred Inv) comes through here, so
  // this is also where a parked poll_until wakes.
  void maybe_txn_conflict_on_loss(Addr a, bool losing_all_permissions);

  CoreId id_;
  Engine& engine_;
  Interconnect& net_;
  MachineConfig cfg_;
  Trace* trace_;
  Stats* metrics_;  // machine-wide registry; may be null
  CoreId dir_;

  LineTable& lines_;     // shared with the directory and every core
  Pending req_;          // the one in-flight request, on req_addr_
  Addr req_addr_ = kNullAddr;
  bool req_live_ = false;
  // Forwards stalled behind req_, in arrival order, and the list being
  // answered by release_request. Each other core has at most one request
  // in flight, so both hold fewer than cfg.cores messages; they are
  // reserved to that at construction and never allocate afterwards.
  std::vector<Message> stalled_fwds_;
  std::vector<Message> answering_;
  InlineVec<Waiter, 8> waiters_;
  Txn txn_;
  // Rate-based fault injection: cumulative uint32 thresholds so one draw
  // from state_.fault_rng_state (a per-core SplitMix64 stream seeded from
  // (fault_plan.seed, id)) per transactional attempt selects capacity /
  // interrupt / spurious / none (thresholds all zero when rates are
  // inactive — one compare).
  std::uint32_t fault_cap_t_ = 0;
  std::uint32_t fault_int_t_ = 0;
  std::uint32_t fault_spur_t_ = 0;
  Op op_;                     // the thread's current operation
  TxCasOp txcas_op_;          // TxCAS state of op_ (kind kTxCas)
  PollOp poll_;               // poll_until state of op_ (kind kPoll)
  // Everything snapshot/fork carries (see State).
  State state_;
};

}  // namespace sbq::sim
