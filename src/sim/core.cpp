// Core operation plumbing and the TxCAS state machine.
#include "sim/core.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "sim/trace.hpp"

namespace sbq::sim {

namespace {
// Probability in [0,1] → uint32 threshold for a `draw < t` test on the top
// 32 bits of a 64-bit random word. Saturates so rate=1.0 always fires.
std::uint32_t rate_to_threshold(double rate) noexcept {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return 0xffffffffu;
  return static_cast<std::uint32_t>(rate * 4294967296.0);
}
}  // namespace

Core::Core(CoreId id, Engine& engine, Interconnect& net, LineTable& lines,
           const MachineConfig& cfg, Trace* trace, Stats* metrics)
    : id_(id), engine_(engine), net_(net), cfg_(cfg), trace_(trace),
      metrics_(metrics), dir_(net.directory_id()), lines_(lines) {
  const FaultPlan& plan = cfg_.fault_plan;
  if (plan.rates_active()) {
    // Per-core stream: decorrelate cores by mixing the id into the seed.
    SplitMix64 sm(plan.seed ^
                  (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id_) + 1)));
    state_.fault_rng_state = sm.next();
    // Cumulative thresholds: one draw selects capacity / interrupt /
    // spurious / none.
    const std::uint64_t cap = rate_to_threshold(plan.capacity_rate);
    const std::uint64_t intr = rate_to_threshold(plan.interrupt_rate);
    const std::uint64_t spur = rate_to_threshold(plan.spurious_rate);
    const auto sat = [](std::uint64_t v) {
      return static_cast<std::uint32_t>(v > 0xffffffffu ? 0xffffffffu : v);
    };
    fault_cap_t_ = sat(cap);
    fault_int_t_ = sat(cap + intr);
    fault_spur_t_ = sat(cap + intr + spur);
  }
  // Per-core contention-policy stream, decorrelated by core id. Seeded
  // unconditionally (cheap, deterministic) so switching the policy kind
  // never perturbs any other stream.
  state_.policy_state = ContentionPolicy::seeded_state(
      cfg_.cas_policy.seed, static_cast<std::uint64_t>(id_));
  // Sized for the stall bound (see stalled_fwds_), so a measured phase
  // never allocates here (sim_microbench zero-alloc gate).
  const auto cores = static_cast<std::size_t>(cfg_.cores);
  stalled_fwds_.reserve(cores);
  answering_.reserve(cores);
}

Core::State Core::save_state() const {
  assert(quiescent() && "cannot snapshot a core with in-flight state");
  return state_;
}

void Core::restore_state(const State& s) {
  assert(quiescent() && "cannot restore onto a core with in-flight state");
  state_ = s;
}

// ---------------------------------------------------------------------------
// The operation record and the generic acquire. An acquire ensures the line
// is present with the needed permission, then resumes its continuation
// (synchronously within the completing event): the record's access, or a
// TxCAS attempt's read or write step.
// ---------------------------------------------------------------------------

void Core::begin_op(OpKind kind, Addr a, Value a0, Value a1,
                    std::coroutine_handle<> thread) {
  assert(!op_.thread && "one operation in flight per core");
  op_.kind = kind;
  op_.addr = a;
  op_.a0 = a0;
  op_.a1 = a1;
  op_.thread = thread;
}

void Core::start_access(OpKind kind, Addr a, Value a0, Value a1,
                        std::coroutine_handle<> thread) {
  begin_op(kind, a, a0, a1, thread);
  switch (kind) {
    case OpKind::kLoad: ++state_.stats.loads; break;
    case OpKind::kStore: ++state_.stats.stores; break;
    default: ++state_.stats.rmws; break;
  }
  acquire(a, /*want_m=*/kind != OpKind::kLoad, Cont::kAccess, 0);
}

void Core::finish_op(Value result) {
  op_.result = result;
  // The thread may start its next operation on this record right away.
  const std::coroutine_handle<> thread = std::exchange(op_.thread, nullptr);
  thread.resume();
}

void Core::acquire(Addr a, bool want_m, Cont cont, std::uint64_t token) {
  if (pending(a) != nullptr) {
    // Our own request on this line is in flight (e.g. the background GetM of
    // an aborted transaction). Wait for it to settle, then try again.
    waiters_.push_back({a, want_m, cont, token});
    return;
  }
  if (LineRecord* line = lines_.find(a)) {
    const LineState s = line->cores.get(id_);
    if (s == LineState::kModified || (!want_m && s != LineState::kInvalid)) {
      resume(cont, token, a, *line, /*was_miss=*/false);
      return;
    }
  }
  issue_request(a, want_m, cont, token);
}

void Core::resume(Cont cont, std::uint64_t token, Addr a, LineRecord& line,
                  bool was_miss) {
  switch (cont) {
    case Cont::kAccess: access(line, was_miss); return;
    case Cont::kTxRead: txcas_on_read_ready(a, token, was_miss); return;
    case Cont::kTxWrite: txcas_on_write_ready(a, token, was_miss); return;
  }
}

void Core::issue_request(Addr a, bool want_m, Cont cont, std::uint64_t token) {
  assert(!req_live_ && "one request in flight per core");
  if (metrics_) metrics_->on_request(id_, want_m);
  req_ = Pending{.want_m = want_m, .cont = cont, .token = token};
  req_addr_ = a;
  req_live_ = true;
  Message req{.addr = a, .src = id_, .requester = id_,
              .type = want_m ? MsgType::kGetM : MsgType::kGetS};
  net_.send(id_, dir_, req);
}

void Core::finish_request(Addr a, Pending& p) {
  // The directory made the record when it processed our request.
  LineRecord& line = lines_.at(a);
  // Owned-to-Modified upgrade: our copy is the authoritative one; the
  // directory's response only carried the ack count (its value is stale).
  const bool keep_own_value =
      p.want_m && line.cores.get(id_) == LineState::kOwned;
  if (!keep_own_value) {
    // The data equals every valid copy, so the line's one cached value
    // serves them all (line_table.hpp).
    assert((!line.cores.valid_except(id_) || line.value == p.data) &&
           "installed data differs from another core's valid copy");
    line.value = p.data;
  }
  line.cores.set(id_, p.want_m ? LineState::kModified : LineState::kShared);
  p.locked = true;  // forwards stay stalled until the op releases the line
  if (trace_ && trace_->enabled()) {
    trace_->record(engine_.now(), id_,
                   p.want_m ? "GetM complete" : "GetS complete", a,
                   static_cast<std::int64_t>(p.data));
  }
  // Hand control to the operation that issued the request. It must call
  // release_request(a) when its atomic step is done.
  resume(p.cont, p.token, a, line, /*was_miss=*/true);
}

void Core::release_request(Addr a) {
  assert(pending(a) != nullptr && answering_.empty());
  req_live_ = false;
  // Answer forwards stalled behind this request, in arrival order. Each may
  // change the line's state (downgrade/invalidate).
  answering_.swap(stalled_fwds_);

  if (req_.inv_after_data) {
    // An Inv raced with our GetS: the load observed the data once; the line
    // is invalid from now on and the invalidating writer gets its ack.
    const CoreId inv_req = req_.deferred_inv_requester;
    lines_.at(a).cores.set(id_, LineState::kInvalid);
    maybe_txn_conflict_on_loss(a, true);
    Message ack{.addr = a, .src = id_, .requester = inv_req,
                .type = MsgType::kInvAck};
    net_.send(id_, inv_req, ack);
  }
  for (const Message& fwd : answering_) {
    if (fwd.type == MsgType::kFwdGetS) {
      answer_fwd_gets(fwd);
    } else {
      answer_fwd_getm(fwd);
    }
  }
  answering_.clear();
  run_waiters(a);
}

void Core::run_waiters(Addr a) {
  if (waiters_.empty()) return;
  // Take this line's waiters out first: a re-acquire may park again behind
  // a request an earlier one just issued, and then waits for its release.
  InlineVec<Waiter, 8> parked = std::move(waiters_);
  InlineVec<Waiter, 8> ready;
  for (const Waiter& w : parked) (w.addr == a ? ready : waiters_).push_back(w);
  for (const Waiter& w : ready) acquire(w.addr, w.want_m, w.cont, w.token);
}

// ---------------------------------------------------------------------------
// Plain accesses: the record's load, store or read-modify-write, performed
// once its line is held, completing hit_latency (rmw_latency) later.
// ---------------------------------------------------------------------------

void Core::access(LineRecord& line, bool was_miss) {
  op_.was_miss = was_miss;
  Time latency = cfg_.hit_latency;
  switch (op_.kind) {
    case OpKind::kLoad:
    case OpKind::kTxLoad:
    case OpKind::kPoll:
      op_.result = line.value;
      break;
    case OpKind::kStore:
      line.value = op_.a0;
      break;
    // We own the line: perform the read-modify-write atomically. Incoming
    // forwards are stalled (the request is locked) until rmw_latency has
    // elapsed — the §3.2 stall that serializes contended RMWs.
    case OpKind::kCas:
    case OpKind::kTxFallback:
      latency = cfg_.rmw_latency;
      if (line.value == op_.a0) {
        line.value = op_.a1;
        op_.result = 1;
      } else {
        op_.result = 0;
      }
      break;
    case OpKind::kFaa:
      latency = cfg_.rmw_latency;
      op_.result = line.value;
      line.value += op_.a0;
      break;
    case OpKind::kSwap:
      latency = cfg_.rmw_latency;
      op_.result = line.value;
      line.value = op_.a0;
      break;
    case OpKind::kTxCas:
      assert(false && "a TxCAS attempt acquires through kTxRead/kTxWrite");
      break;
  }
  engine_.schedule_typed(latency, EventKind::kAccessDone, id_);
}

void Core::complete_access() {
  if (op_.was_miss) release_request(op_.addr);
  switch (op_.kind) {
    case OpKind::kTxLoad: txcas_post_abort_loaded(); return;
    case OpKind::kTxFallback: txcas_fallback_done(); return;
    case OpKind::kPoll: poll_loaded(); return;
    default: finish_op(op_.result); return;
  }
}

// ---------------------------------------------------------------------------
// poll_until: the plain spin loop `v = load(a); if (v >= at_least) break;
// think(gap);` with the same schedule, minus the events of its hits. A hit
// on a valid line whose value is below the threshold parks the core
// instead of scheduling the load's completion and the think: the line's
// value cannot change while this core holds it, so every later poll would
// hit too and see the same value. The poll instants stay implicit —
// `next`, `next + period`, ... with period = hit_latency + gap — until a
// loss of the line (maybe_txn_conflict_on_loss) wakes the core at the
// first instant whose load misses. Only CoreStats::loads counts the skipped hits; it is
// credited in bulk on wake, so every counter except engine events matches
// the plain loop.
// ---------------------------------------------------------------------------

void Core::start_poll(Addr a, Value at_least, Time gap,
                      std::coroutine_handle<> thread) {
  assert(!poll_.active && "one poll_until per core");
  begin_op(OpKind::kPoll, a, 0, 0, thread);
  poll_.active = true;
  poll_.gap = gap == 0 ? 1 : gap;  // think(0) still takes a cycle
  poll_.at_least = at_least;
  poll_step();
}

void Core::poll_step() {
  const Addr a = op_.addr;
  // Parking needs gap < every message latency: a loss of the line is a
  // message sent at least that long ago, so it then always precedes, in
  // engine order, the plain loop's poll event of the same cycle (scheduled
  // `gap` cycles before it). Longer gaps run the plain loop.
  const bool can_park =
      poll_.gap < std::min(cfg_.intra_latency, cfg_.inter_latency);
  if (can_park && pending(a) == nullptr) {
    const LineRecord* line = lines_.find(a);
    if (line != nullptr && line->cores.get(id_) != LineState::kInvalid) {
      // A hit, exactly as a plain load's: count it, read the value now.
      ++state_.stats.loads;
      op_.result = line->value;
      if (op_.result < poll_.at_least) {
        poll_.parked = true;
        poll_.next = engine_.now() + cfg_.hit_latency + poll_.gap;
        return;
      }
      engine_.schedule(cfg_.hit_latency, [this] { poll_finish(); });
      return;
    }
  }
  // A miss (or a gap too long to park with): the plain loop's load.
  ++state_.stats.loads;
  acquire(a, /*want_m=*/false, Cont::kAccess, 0);
}

void Core::poll_loaded() {
  if (op_.result >= poll_.at_least) {
    poll_finish();
  } else {
    engine_.schedule(poll_.gap, [this] { poll_step(); });
  }
}

void Core::poll_wake() {
  // Poll instants before now hit (they ran ahead of this loss); one at
  // exactly now misses (see can_park in poll_step).
  poll_.parked = false;
  const Time now = engine_.now();
  const Time period = cfg_.hit_latency + poll_.gap;
  Time at = poll_.next;
  if (at < now) at += (now - at + period - 1) / period * period;
  state_.stats.loads += (at - poll_.next) / period;
  poll_.next = at;
  engine_.schedule(at - now, [this] { poll_step(); });
}

void Core::poll_finish() {
  poll_.active = false;
  finish_op(op_.result);
}

// ---------------------------------------------------------------------------
// TxCAS (§4, Algorithm 1) as an explicit state machine over the operation
// record (op_: addr, a0 = expected, a1 = desired) and the per-core TxCAS
// slot. Continuations belonging to a finished attempt may still run (a
// stale GetS/GetM completing); they carry the addr and the attempt's txn
// token and bail out on a token mismatch, touching neither op_ nor the
// slot, which may already describe a newer attempt or operation. Tokens
// increase monotonically across attempts and operations.
// ---------------------------------------------------------------------------

void Core::start_txcas(Addr a, Value expected, Value desired, TxCasConfig cfg,
                       std::coroutine_handle<> thread) {
  begin_op(OpKind::kTxCas, a, expected, desired, thread);
  ++state_.stats.txcas_calls;
  if (metrics_) metrics_->on_txcas_call(id_);
  TxCasOp& op = txcas_op_;
  op.cfg = cfg;
  // Re-arm the retry brain for this call: machine-wide policy params, this
  // op's §4 knobs. The persistent policy_state is deliberately untouched.
  op.policy = make_contention_policy(cfg_.cas_policy, cfg);
  op.policy.begin_call();
  txcas_attempt();
}

void Core::txcas_attempt() {
  TxCasOp& op = txcas_op_;
  // The policy decides: retry transactionally, fall back on attempt-budget
  // exhaustion, or degrade after persistent non-conflict aborts (capacity,
  // interrupt, spurious — retrying those buys nothing).
  const CasStep step = op.policy.next_step();
  if (metrics_) metrics_->on_policy_step(id_, static_cast<int>(step));
  if (step != CasStep::kTxn) {
    txcas_fallback(/*degraded=*/step == CasStep::kFallbackDegraded);
    return;
  }
  op.policy.note_attempt();
  ++state_.stats.txcas_attempts;
  if (metrics_) metrics_->on_txn_attempt(id_);
  op_.kind = OpKind::kTxCas;
  txn_.active = true;
  txn_.in_write_phase = false;
  txn_.addr = op_.addr;
  txn_.read_marked = false;
  ++txn_.token;
  // Transactional read: needs the line in S (or M). The read itself is a
  // plain GetS if we miss.
  acquire(op_.addr, /*want_m=*/false, Cont::kTxRead, txn_.token);
}

void Core::txcas_on_read_ready(Addr a, std::uint64_t token, bool was_miss) {
  // The acquire may complete after an asynchronous abort already tore the
  // transaction down (e.g. deferred Inv) — or after the whole operation
  // finished. Detect via the token; the stale path must use the acquired
  // addr (op_ may describe a newer op).
  if (!txn_.active || txn_.token != token) {
    if (was_miss) release_request(a);
    return;
  }
  TxCasOp& op = txcas_op_;
  const Value v = lines_.at(a).value;
  txn_.read_marked = true;
  if (was_miss) release_request(a);
  if (!txn_.active || txn_.token != token) {
    return;  // releasing answered a deferred Inv that aborted us
  }

  if (v != op_.a0) {
    // Self-abort (_xabort(1) in Algorithm 1): the CAS fails outright.
    ++state_.stats.self_aborts;
    ++state_.stats.txcas_fail;
    if (metrics_) {
      metrics_->on_txn_abort(id_, AbortCause::kExplicit);
      metrics_->on_txcas_done(id_, static_cast<int>(op.policy.attempts()),
                              false);
    }
    txn_ = Txn{.token = txn_.token};
    engine_.schedule(cfg_.hit_latency, [this] { finish_op(0); });
    return;
  }

  // Intra-transaction delay (§4.1). A conflicting invalidation during the
  // delay aborts the transaction (the timer notices via the token).
  //
  // The delay carries a deterministic per-attempt variance of up to ~50%.
  // Real spin-loop delays have exactly this kind of spread (PAUSE latency
  // varies with SMT and power state, _xbegin cost varies, the preceding
  // read may hit or miss), and §4.1's argument depends on it: the winner's
  // write must land while other transactions are still reading/delaying.
  // A cycle-exact simulator without the variance locks all contenders into
  // synchronized rounds in which every delay expires before the first
  // invalidation arrives, so every transaction reaches its write — a
  // lockstep artifact no real machine sustains.
  // The policy supplies the delay base (== cfg.intra_txn_delay under the
  // fixed policy; failure-history-scaled under adaptive-backoff). The
  // schedule jitter keeps drawing from the core's own LCG stream either
  // way, so switching policies never desynchronizes other draws.
  const Time delay_base = op.policy.intra_delay(state_.policy_state);
  std::uint64_t& jitter_state = state_.delay_jitter_state;
  jitter_state = jitter_state * 6364136223846793005ULL +
                 1442695040888963407ULL + static_cast<std::uint64_t>(id_);
  const Time jitter_range = delay_base / 2 + 16;
  const Time jitter = (jitter_state >> 33) % jitter_range;
  if (metrics_) metrics_->on_policy_delay(id_, /*intra=*/true, delay_base + jitter);
  engine_.schedule(delay_base + jitter, [this, token] {
    if (!txn_.active || txn_.token != token) return;
    txcas_enter_write();
  });

  // Rate-based fault injection (MachineConfig::fault_plan): one draw per
  // transactional attempt; a hit schedules an injected abort at a
  // deterministic offset inside the attempt's vulnerability window. The
  // callback is token-guarded, so an attempt that already ended (committed
  // or aborted on a real conflict) ignores the stale fault.
  if ((fault_cap_t_ | fault_int_t_ | fault_spur_t_) != 0) {
    std::uint64_t z = (state_.fault_rng_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const auto draw = static_cast<std::uint32_t>(z >> 32);
    if (draw < fault_spur_t_) {
      const FaultKind kind = draw < fault_cap_t_    ? FaultKind::kCapacity
                             : draw < fault_int_t_ ? FaultKind::kInterrupt
                                                   : FaultKind::kSpurious;
      const Time window = delay_base + jitter;
      const Time offset =
          1 + static_cast<Time>(z & 0xffffffffu) % (window == 0 ? 1 : window);
      engine_.schedule(offset, [this, kind, token] {
        if (!txn_.active || txn_.token != token) return;
        deliver_injected_fault(kind);
      });
    }
  }
}

void Core::txcas_enter_write() {
  txn_.in_write_phase = true;
  const Addr a = op_.addr;
  const std::uint64_t token = txn_.token;
  if (pending(a) == nullptr && line_state(a) == LineState::kModified) {
    // Already own the line: the write hits and the transaction commits with
    // (almost) no vulnerability window.
    engine_.schedule(cfg_.hit_latency, [this, token] {
      if (!txn_.active || txn_.token != token) return;
      txcas_commit();
    });
    return;
  }
  // Issue the transactional GetM. The write value stays in the store buffer
  // (we only apply it at commit). Mark the pending request as transactional
  // so the cache side can detect tripped-writer forwards. The token guard
  // matters: if this attempt aborts and the op retries, the stale GetM
  // completion must release the line instead of committing the new attempt.
  acquire(a, /*want_m=*/true, Cont::kTxWrite, token);
  if (Pending* p = pending(a)) p->txn_write = true;
}

void Core::txcas_on_write_ready(Addr a, std::uint64_t token, bool was_miss) {
  if (!txn_.active || txn_.token != token) {
    // Aborted while the GetM was in flight: ownership still arrives; the
    // buffered write is discarded. Release to answer stalled forwards.
    if (was_miss) release_request(a);
    return;
  }
  txcas_commit();
}

void Core::txcas_commit() {
  TxCasOp& op = txcas_op_;
  const Addr a = op_.addr;
  // _xend: all transactional writes propagate to the cache.
  lines_.at(a).value = op_.a1;
  ++state_.stats.txcas_success;
  op.policy.on_commit(state_.policy_state);
  if (metrics_) {
    metrics_->on_txn_commit(id_);
    metrics_->on_txcas_done(id_, static_cast<int>(op.policy.attempts()),
                            true);
  }
  txn_ = Txn{.token = txn_.token};
  if (trace_ && trace_->enabled()) {
    trace_->record(engine_.now(), id_, "txcas commit", a,
                   static_cast<std::int64_t>(op_.a1));
  }
  const bool was_miss = pending(a) != nullptr;
  engine_.schedule(cfg_.hit_latency, [this, a, was_miss] {
    if (was_miss) release_request(a);
    finish_op(1);
  });
}

// Called from the protocol side when a conflicting message hits the
// transaction's footprint. kind: 0 = conflict in the read/delay ("nested")
// phase, 1 = conflict that tripped the write.
void Core::txcas_abort(int kind, AbortCause cause) {
  assert(txn_.active);
  TxCasOp& op = txcas_op_;
  if (metrics_) metrics_->on_txn_abort(id_, cause);
  txn_.active = false;
  txn_.read_marked = false;
  ++txn_.token;  // cancels any scheduled delay timer
  if (trace_ && trace_->enabled()) {
    trace_->record(engine_.now(), id_,
                   kind == 0 ? "txcas abort (nested)" : "txcas abort (tripped)",
                   op_.addr, static_cast<std::int64_t>(op.policy.attempts()));
  }
  // Feed the abort-cause taxonomy into the policy: injected causes are
  // non-conflict (they spend the degradation budget), real conflicts split
  // into read-phase vs write-phase (adaptive-backoff escalates its failure
  // history on either).
  const bool nonconflict = cause == AbortCause::kCapacity ||
                           cause == AbortCause::kInterrupt ||
                           cause == AbortCause::kSpurious;
  op.policy.on_abort(state_.policy_state,
                     nonconflict ? CasAbort::kNonConflict
                     : kind == 0 ? CasAbort::kReadConflict
                                 : CasAbort::kWriteConflict);
  // The op has not completed (the thread is not resumed yet), so the
  // record stays valid until the scheduled retry/post-abort step runs.
  if (kind == 0) {
    ++state_.stats.nested_aborts;
    // Conflict during the read step: a writer's GetM is in flight. Delay so
    // our re-read does not trip it, then check whether the value changed
    // (Algorithm 1 lines 19–20). The delay length is the policy's call
    // (== cfg.post_abort_delay under fixed; scaled + jittered from the
    // serialized per-core stream under adaptive-backoff).
    const Time post = op.policy.post_abort_delay(state_.policy_state);
    if (metrics_) metrics_->on_policy_delay(id_, /*intra=*/false, post);
    engine_.schedule(post, [this] { txcas_post_abort(); });
  } else {
    // Conflict after the nested transaction (we may be the tripped writer):
    // retry immediately (Algorithm 1 lines 16–18). The caller attributes
    // the abort (tripped_aborts for Fwd-GetS, plain retry otherwise).
    engine_.schedule(1, [this] { txcas_attempt(); });
  }
}

void Core::txcas_post_abort() {
  ++state_.stats.loads;
  op_.kind = OpKind::kTxLoad;
  acquire(op_.addr, /*want_m=*/false, Cont::kAccess, 0);
}

void Core::txcas_post_abort_loaded() {
  if (op_.result != op_.a0) {
    ++state_.stats.txcas_fail;
    if (metrics_) {
      metrics_->on_txcas_done(
          id_, static_cast<int>(txcas_op_.policy.attempts()), false);
    }
    finish_op(0);
  } else {
    txcas_attempt();
  }
}

void Core::inject_fault(FaultKind kind) { deliver_injected_fault(kind); }

void Core::deliver_injected_fault(FaultKind kind) {
  if (!txn_.active) return;  // landed between transactions: harmless
  AbortCause cause = AbortCause::kSpurious;
  switch (kind) {
    case FaultKind::kCapacity:
      cause = AbortCause::kCapacity;
      ++state_.stats.injected_capacity;
      break;
    case FaultKind::kInterrupt:
      cause = AbortCause::kInterrupt;
      ++state_.stats.injected_interrupt;
      break;
    case FaultKind::kSpurious:
      cause = AbortCause::kSpurious;
      ++state_.stats.injected_spurious;
      break;
  }
  if (trace_ && trace_->enabled()) {
    trace_->record(engine_.now(), id_, "txcas fault injected", op_.addr,
                   static_cast<std::int64_t>(kind));
  }
  // Tear the attempt down like a write-phase conflict: no post-abort
  // re-read is needed (the shared value did not change under us), just
  // retry — or degrade, once the non-conflict budget is spent.
  txcas_abort(/*kind=*/1, cause);
}

void Core::txcas_fallback(bool degraded) {
  if (degraded) {
    ++state_.stats.fallback_cas;
    if (metrics_) metrics_->on_fallback_cas(id_);
  } else {
    ++state_.stats.fallbacks;
    if (metrics_) metrics_->on_txn_fallback(id_);
  }
  ++state_.stats.rmws;
  op_.kind = OpKind::kTxFallback;
  acquire(op_.addr, /*want_m=*/true, Cont::kAccess, 0);
}

void Core::txcas_fallback_done() {
  const bool ok = op_.result != 0;
  if (ok) {
    ++state_.stats.txcas_success;
  } else {
    ++state_.stats.txcas_fail;
  }
  if (metrics_) {
    metrics_->on_txcas_done(
        id_, static_cast<int>(txcas_op_.policy.attempts()), ok);
  }
  finish_op(ok ? 1 : 0);
}

}  // namespace sbq::sim
