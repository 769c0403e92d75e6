// Core operation plumbing and the TxCAS state machine.
#include "sim/core.hpp"

#include <algorithm>

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

Core::Core(CoreId id, Engine& engine, Interconnect& net,
           const MachineConfig& cfg, Trace* trace, Stats* metrics)
    : id_(id), engine_(engine), net_(net), cfg_(cfg), trace_(trace),
      metrics_(metrics), dir_(net.directory_id()) {
  const FaultPlan& plan = cfg_.fault_plan;
  if (plan.rates_active()) {
    // Per-core stream: decorrelate cores by mixing the id into the seed.
    SplitMix64 sm(plan.seed ^
                  (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id_) + 1)));
    fault_rng_state_ = sm.next();
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
  txcas_op_.policy_state = ContentionPolicy::seeded_state(
      cfg_.cas_policy.seed, static_cast<std::uint64_t>(id_));
  // Pre-size the small request-path tables to their minimum capacity now.
  // Both are bounded by concurrent in-flight requests (a handful), but a
  // core whose first parked waiter lands mid-run would otherwise pay the
  // table's lazy first rehash inside a measured phase — observed under
  // adaptive contention policies, whose reshaped retry schedules can make
  // a retry acquire overlap the same core's background abort-GetM for the
  // first time phases after warm-up (sim_microbench zero-alloc gate).
  pending_.reserve(1);
  waiters_.reserve(1);
}

Core::LineState Core::line_state(Addr a) const {
  auto it = lines_.find(a);
  return it == lines_.end() ? LineState::kInvalid : it->second.state;
}

Core::State Core::save_state() const {
  assert(quiescent() && "cannot snapshot a core with in-flight state");
  return State{lines_, stats_, delay_jitter_state_, fault_rng_state_,
               txcas_op_.policy_state};
}

void Core::restore_state(const State& s) {
  assert(quiescent() && "cannot restore onto a core with in-flight state");
  lines_ = s.lines;
  stats_ = s.stats;
  delay_jitter_state_ = s.delay_jitter_state;
  fault_rng_state_ = s.fault_rng_state;
  txcas_op_.policy_state = s.policy_state;
}

// ---------------------------------------------------------------------------
// Generic acquire: ensure the line is present with the needed permission,
// then run `cont` (synchronously within the completing event).
// ---------------------------------------------------------------------------

void Core::acquire(Addr a, bool want_m, ContFn cont) {
  if (pending_.count(a) != 0) {
    // Our own request on this line is in flight (e.g. the background GetM of
    // an aborted transaction). Wait for it to settle, then try again.
    waiters_[a].push_back(
        WaiterFn([this, a, want_m, cont = std::move(cont)]() mutable {
          acquire(a, want_m, std::move(cont));
        }));
    return;
  }
  auto it = lines_.find(a);
  const bool hit =
      it != lines_.end() &&
      (it->second.state == LineState::kModified ||
       (!want_m && (it->second.state == LineState::kShared ||
                    it->second.state == LineState::kOwned)));
  if (hit) {
    cont();
    return;
  }
  issue_request(a, want_m, std::move(cont));
}

void Core::issue_request(Addr a, bool want_m, ContFn cont) {
  if (metrics_) metrics_->on_request(id_, a, want_m);
  Pending& p = pending_[a];
  p.want_m = want_m;
  p.on_complete = std::move(cont);
  Message req{want_m ? MsgType::kGetM : MsgType::kGetS, a, id_, id_, 0, 0};
  net_.send(id_, dir_node(a), req);
}

void Core::finish_request(Addr a) {
  Line& line = lines_[a];
  Pending& p = pending_.at(a);
  // Owned-to-Modified upgrade: our copy is the authoritative one; the
  // directory's response only carried the ack count (its value is stale).
  const bool keep_own_value =
      p.want_m && line.state == LineState::kOwned;
  line.state = p.want_m ? LineState::kModified : LineState::kShared;
  if (!keep_own_value) line.value = p.data;
  p.locked = true;  // forwards stay stalled until the op releases the line
  if (trace_ && trace_->enabled()) {
    trace_->record(engine_.now(), id_,
                   p.want_m ? "GetM complete" : "GetS complete", a,
                   static_cast<std::int64_t>(p.data));
  }
  // Hand control to the operation that issued the request. It must call
  // release_request(a) when its atomic step is done.
  auto cont = std::move(p.on_complete);
  if (cont) {
    cont();
  } else {
    // Operation no longer cares (aborted transaction): release immediately.
    release_request(a);
  }
}

void Core::release_request(Addr a) {
  auto it = pending_.find(a);
  assert(it != pending_.end());
  // Answer forwards stalled behind this request, in arrival order. Each may
  // change the line's state (downgrade/invalidate).
  InlineVec<Message, 16> stalls = std::move(it->second.stalled_fwds);
  const bool deferred_inv = it->second.inv_after_data;
  const CoreId inv_req = it->second.deferred_inv_requester;
  pending_.erase(it);

  if (deferred_inv) {
    // An Inv raced with our GetS: the load observed the data once; the line
    // is invalid from now on and the invalidating writer gets its ack.
    Line& line = lines_[a];
    line.state = LineState::kInvalid;
    maybe_txn_conflict_on_loss(a, true);
    Message ack{MsgType::kInvAck, a, id_, inv_req, 0, 0};
    net_.send(id_, inv_req, ack);
  }
  for (const Message& fwd : stalls) {
    if (fwd.type == MsgType::kFwdGetS) {
      answer_fwd_gets(fwd);
    } else {
      answer_fwd_getm(fwd);
    }
  }
  run_waiters(a);
}

void Core::run_waiters(Addr a) {
  auto it = waiters_.find(a);
  if (it == waiters_.end()) return;
  InlineVec<WaiterFn, 4> ws = std::move(it->second);
  waiters_.erase(it);
  for (auto& w : ws) w();
}

// ---------------------------------------------------------------------------
// Plain operations.
// ---------------------------------------------------------------------------

void Core::start_load(Addr a, DoneValFn done) {
  ++stats_.loads;
  acquire(a, /*want_m=*/false, ContFn([this, a, done = std::move(done)]() mutable {
    const Value v = lines_.at(a).value;
    const bool was_miss = pending_.count(a) != 0;
    engine_.schedule(cfg_.hit_latency,
                     [this, a, v, was_miss, done = std::move(done)]() mutable {
      if (was_miss) release_request(a);
      done(v);
    });
  }));
}

void Core::start_store(Addr a, Value v, DoneVoidFn done) {
  ++stats_.stores;
  acquire(a, /*want_m=*/true,
          ContFn([this, a, v, done = std::move(done)]() mutable {
    lines_.at(a).value = v;
    const bool was_miss = pending_.count(a) != 0;
    engine_.schedule(cfg_.hit_latency,
                     [this, a, was_miss, done = std::move(done)]() mutable {
      if (was_miss) release_request(a);
      done();
    });
  }));
}

void Core::start_rmw(Rmw kind, Addr a, Value arg0, Value arg1, DoneValFn done) {
  ++stats_.rmws;
  acquire(a, /*want_m=*/true,
          ContFn([this, kind, a, arg0, arg1, done = std::move(done)]() mutable {
    // We own the line: perform the read-modify-write atomically. Incoming
    // forwards are stalled (pending entry is locked) until rmw_latency has
    // elapsed — the §3.2 stall that serializes contended RMWs.
    Line& line = lines_.at(a);
    const Value old = line.value;
    Value result = old;
    switch (kind) {
      case Rmw::kCas:
        if (old == arg0) {
          line.value = arg1;
          result = 1;
        } else {
          result = 0;
        }
        break;
      case Rmw::kFaa:
        line.value = old + arg0;
        break;
      case Rmw::kSwap:
        line.value = arg0;
        break;
    }
    const bool was_miss = pending_.count(a) != 0;
    engine_.schedule(cfg_.rmw_latency,
                     [this, a, was_miss, result, done = std::move(done)]() mutable {
      if (was_miss) release_request(a);
      done(result);
    });
  }));
}

// ---------------------------------------------------------------------------
// poll_until: the plain spin loop `v = load(a); if (pred(v)) break;
// think(gap);` with the same schedule, minus the events of its hits. A hit
// on a valid line whose value fails pred parks the core instead of
// scheduling the load's completion and the think: the line's value cannot
// change while this core holds it, so every later poll would hit too and
// see the same value. The poll instants stay implicit — `next`, `next +
// period`, ... with period = hit_latency + gap — until a loss of the line
// (maybe_txn_conflict_on_loss) wakes the core at the first instant whose
// load misses. Only CoreStats::loads counts the skipped hits; it is
// credited in bulk on wake, so every counter except engine events matches
// the plain loop.
// ---------------------------------------------------------------------------

void Core::start_poll(Addr a, PollPredFn pred, Time gap, DoneValFn done) {
  assert(!poll_.active && "one poll_until per core");
  poll_.active = true;
  poll_.addr = a;
  poll_.gap = gap == 0 ? 1 : gap;  // think(0) still takes a cycle
  poll_.pred = std::move(pred);
  poll_.done = std::move(done);
  poll_step();
}

void Core::poll_step() {
  const Addr a = poll_.addr;
  // Parking needs gap < every message latency: a loss of the line is a
  // message sent at least that long ago, so it then always precedes, in
  // engine order, the plain loop's poll event of the same cycle (scheduled
  // `gap` cycles before it). Longer gaps run the plain loop.
  const bool can_park =
      poll_.gap < std::min(cfg_.intra_latency, cfg_.inter_latency);
  if (can_park && pending_.count(a) == 0) {
    auto it = lines_.find(a);
    if (it != lines_.end() && it->second.state != LineState::kInvalid) {
      // A hit, exactly as start_load's: count it, read the value now.
      ++stats_.loads;
      const Value v = it->second.value;
      if (!poll_.pred(v)) {
        poll_.parked = true;
        poll_.next = engine_.now() + cfg_.hit_latency + poll_.gap;
        return;
      }
      engine_.schedule(cfg_.hit_latency, [this, v] { poll_finish(v); });
      return;
    }
  }
  // A miss (or a gap too long to park with): the plain loop's load.
  start_load(a, DoneValFn([this](Value v) {
    if (poll_.pred(v)) {
      poll_finish(v);
    } else {
      engine_.schedule(poll_.gap, [this] { poll_step(); });
    }
  }));
}

void Core::poll_wake() {
  // Poll instants before now hit (they ran ahead of this loss); one at
  // exactly now misses (see can_park in poll_step).
  poll_.parked = false;
  const Time now = engine_.now();
  const Time period = cfg_.hit_latency + poll_.gap;
  Time at = poll_.next;
  if (at < now) at += (now - at + period - 1) / period * period;
  stats_.loads += (at - poll_.next) / period;
  poll_.next = at;
  engine_.schedule(at - now, [this] { poll_step(); });
}

void Core::poll_finish(Value v) {
  poll_.active = false;
  auto done = std::move(poll_.done);
  done(v);
}

// ---------------------------------------------------------------------------
// TxCAS (§4, Algorithm 1) as an explicit state machine. One live TxCAS per
// core (each core runs one simulated thread), so the operation record is a
// per-core slot (txcas_op_) reused across calls. Callbacks belonging to a
// finished attempt may still fire (a stale GetS/GetM completing); they must
// not read the possibly-reused slot, so they carry the addr and the
// attempt's txn token by value and bail out on a token mismatch. Tokens are
// monotonically increasing across attempts and operations, which makes the
// token check equivalent to the old shared_ptr identity + token pair.
// ---------------------------------------------------------------------------

void Core::start_txcas(Addr a, Value expected, Value desired, TxCasConfig cfg,
                       DoneBoolFn done) {
  ++stats_.txcas_calls;
  if (metrics_) metrics_->on_txcas_call(id_);
  TxCasOp* op = &txcas_op_;
  op->addr = a;
  op->expected = expected;
  op->desired = desired;
  op->cfg = cfg;
  // Re-arm the retry brain for this call: machine-wide policy params, this
  // op's §4 knobs. The persistent policy_state is deliberately untouched.
  op->policy = make_contention_policy(cfg_.cas_policy, cfg);
  op->policy.begin_call();
  op->done = std::move(done);
  txcas_attempt(op);
}

void Core::txcas_attempt(TxCasOp* op) {
  // The policy decides: retry transactionally, fall back on attempt-budget
  // exhaustion, or degrade after persistent non-conflict aborts (capacity,
  // interrupt, spurious — retrying those buys nothing).
  const CasStep step = op->policy.next_step();
  if (metrics_) metrics_->on_policy_step(id_, static_cast<int>(step));
  if (step != CasStep::kTxn) {
    txcas_fallback(op, /*degraded=*/step == CasStep::kFallbackDegraded);
    return;
  }
  op->policy.note_attempt();
  ++stats_.txcas_attempts;
  if (metrics_) metrics_->on_txn_attempt(id_);
  txn_.active = true;
  txn_.in_write_phase = false;
  txn_.addr = op->addr;
  txn_.read_marked = false;
  ++txn_.token;
  txn_op_ = op;
  // Transactional read: needs the line in S (or M). The read itself is a
  // plain GetS if we miss.
  acquire(op->addr, /*want_m=*/false,
          ContFn([this, op, a = op->addr, token = txn_.token] {
            txcas_on_read_ready(op, a, token);
          }));
}

void Core::txcas_on_read_ready(TxCasOp* op, Addr a, std::uint64_t token) {
  // The acquire may complete after an asynchronous abort already tore the
  // transaction down (e.g. deferred Inv) — or, with the per-core slot,
  // after the whole operation finished. Detect via the token; the stale
  // path must use the captured addr (the slot may describe a newer op).
  if (!txn_.active || txn_.token != token) {
    if (pending_.count(a) != 0) release_request(a);
    return;
  }
  const Value v = lines_.at(a).value;
  txn_.read_marked = true;
  const bool was_miss = pending_.count(a) != 0;
  if (was_miss) release_request(a);
  if (!txn_.active || txn_.token != token) {
    return;  // releasing answered a deferred Inv that aborted us
  }

  if (v != op->expected) {
    // Self-abort (_xabort(1) in Algorithm 1): the CAS fails outright.
    ++stats_.self_aborts;
    ++stats_.txcas_fail;
    if (metrics_) {
      metrics_->on_txn_abort(id_, AbortCause::kExplicit);
      metrics_->on_txcas_done(id_, static_cast<int>(op->policy.attempts()),
                              false);
    }
    txn_ = Txn{.token = txn_.token};
    txn_op_ = nullptr;
    engine_.schedule(cfg_.hit_latency, [op] {
      auto done = std::move(op->done);
      done(false);
    });
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
  const Time delay_base = op->policy.intra_delay(op->policy_state);
  delay_jitter_state_ = delay_jitter_state_ * 6364136223846793005ULL +
                        1442695040888963407ULL +
                        static_cast<std::uint64_t>(id_);
  const Time jitter_range = delay_base / 2 + 16;
  const Time jitter = (delay_jitter_state_ >> 33) % jitter_range;
  if (metrics_) metrics_->on_policy_delay(id_, /*intra=*/true, delay_base + jitter);
  engine_.schedule(delay_base + jitter, [this, op, token] {
    if (!txn_.active || txn_.token != token) return;
    txcas_enter_write(op);
  });

  // Rate-based fault injection (MachineConfig::fault_plan): one draw per
  // transactional attempt; a hit schedules an injected abort at a
  // deterministic offset inside the attempt's vulnerability window. The
  // callback is token-guarded, so an attempt that already ended (committed
  // or aborted on a real conflict) ignores the stale fault.
  if ((fault_cap_t_ | fault_int_t_ | fault_spur_t_) != 0) {
    std::uint64_t z = (fault_rng_state_ += 0x9e3779b97f4a7c15ULL);
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

void Core::txcas_enter_write(TxCasOp* op) {
  txn_.in_write_phase = true;
  const std::uint64_t token = txn_.token;
  if (pending_.count(op->addr) == 0 &&
      line_state(op->addr) == LineState::kModified) {
    // Already own the line: the write hits and the transaction commits with
    // (almost) no vulnerability window.
    engine_.schedule(cfg_.hit_latency, [this, op, token] {
      if (!txn_.active || txn_.token != token) return;
      txcas_commit(op);
    });
    return;
  }
  // Issue the transactional GetM. The write value stays in the store buffer
  // (we only apply it at commit). Mark the pending request as transactional
  // so the cache side can detect tripped-writer forwards. The token guard
  // matters: if this attempt aborts and the op retries, the stale GetM
  // completion must release the line instead of committing the new attempt.
  acquire(op->addr, /*want_m=*/true,
          ContFn([this, op, a = op->addr, token] {
    if (!txn_.active || txn_.token != token) {
      // Aborted while the GetM was in flight: ownership still arrives; the
      // buffered write is discarded. Release to answer stalled forwards.
      if (pending_.count(a) != 0) release_request(a);
      return;
    }
    txcas_commit(op);
  }));
  auto it = pending_.find(op->addr);
  if (it != pending_.end()) it->second.txn_write = true;
}

void Core::txcas_commit(TxCasOp* op) {
  // _xend: all transactional writes propagate to the cache.
  lines_.at(op->addr).value = op->desired;
  ++stats_.txcas_success;
  op->policy.on_commit(op->policy_state);
  if (metrics_) {
    metrics_->on_txn_commit(id_);
    metrics_->on_txcas_done(id_, static_cast<int>(op->policy.attempts()),
                            true);
  }
  txn_ = Txn{.token = txn_.token};
  txn_op_ = nullptr;
  if (trace_ && trace_->enabled()) {
    trace_->record(engine_.now(), id_, "txcas commit", op->addr,
                   static_cast<std::int64_t>(op->desired));
  }
  const bool was_miss = pending_.count(op->addr) != 0;
  engine_.schedule(cfg_.hit_latency, [this, op, was_miss] {
    // done() resumes the simulated thread, which may start a new TxCAS in
    // the same slot — move the callback out before invoking, and touch no
    // op field afterwards.
    if (was_miss) release_request(op->addr);
    auto done = std::move(op->done);
    done(true);
  });
}

// Called from the protocol side when a conflicting message hits the
// transaction's footprint. kind: 0 = conflict in the read/delay ("nested")
// phase, 1 = conflict that tripped the write.
void Core::txcas_abort(int kind, AbortCause cause) {
  assert(txn_.active);
  TxCasOp* op = txn_op_;
  if (metrics_) metrics_->on_txn_abort(id_, cause);
  txn_.active = false;
  txn_.read_marked = false;
  ++txn_.token;  // cancels any scheduled delay timer
  txn_op_ = nullptr;
  if (trace_ && trace_->enabled()) {
    trace_->record(engine_.now(), id_,
                   kind == 0 ? "txcas abort (nested)" : "txcas abort (tripped)",
                   op->addr, static_cast<std::int64_t>(op->policy.attempts()));
  }
  // Feed the abort-cause taxonomy into the policy: injected causes are
  // non-conflict (they spend the degradation budget), real conflicts split
  // into read-phase vs write-phase (adaptive-backoff escalates its failure
  // history on either).
  const bool nonconflict = cause == AbortCause::kCapacity ||
                           cause == AbortCause::kInterrupt ||
                           cause == AbortCause::kSpurious;
  op->policy.on_abort(op->policy_state,
                      nonconflict ? CasAbort::kNonConflict
                      : kind == 0 ? CasAbort::kReadConflict
                                  : CasAbort::kWriteConflict);
  // The op has not completed (done not yet called), so the slot stays valid
  // until the scheduled retry/post-abort step runs.
  if (kind == 0) {
    ++stats_.nested_aborts;
    // Conflict during the read step: a writer's GetM is in flight. Delay so
    // our re-read does not trip it, then check whether the value changed
    // (Algorithm 1 lines 19–20). The delay length is the policy's call
    // (== cfg.post_abort_delay under fixed; scaled + jittered from the
    // serialized per-core stream under adaptive-backoff).
    const Time post = op->policy.post_abort_delay(op->policy_state);
    if (metrics_) metrics_->on_policy_delay(id_, /*intra=*/false, post);
    engine_.schedule(post, [this, op] { txcas_post_abort(op); });
  } else {
    // Conflict after the nested transaction (we may be the tripped writer):
    // retry immediately (Algorithm 1 lines 16–18). The caller attributes
    // the abort (tripped_aborts for Fwd-GetS, plain retry otherwise).
    engine_.schedule(1, [this, op] { txcas_attempt(op); });
  }
}

void Core::txcas_post_abort(TxCasOp* op) {
  start_load(op->addr, DoneValFn([this, op](Value v) {
    if (v != op->expected) {
      ++stats_.txcas_fail;
      if (metrics_) {
        metrics_->on_txcas_done(id_, static_cast<int>(op->policy.attempts()),
                                false);
      }
      auto done = std::move(op->done);
      done(false);
    } else {
      txcas_attempt(op);
    }
  }));
}

void Core::inject_fault(FaultKind kind) { deliver_injected_fault(kind); }

void Core::deliver_injected_fault(FaultKind kind) {
  if (!txn_.active) return;  // landed between transactions: harmless
  AbortCause cause = AbortCause::kSpurious;
  switch (kind) {
    case FaultKind::kCapacity:
      cause = AbortCause::kCapacity;
      ++stats_.injected_capacity;
      break;
    case FaultKind::kInterrupt:
      cause = AbortCause::kInterrupt;
      ++stats_.injected_interrupt;
      break;
    case FaultKind::kSpurious:
      cause = AbortCause::kSpurious;
      ++stats_.injected_spurious;
      break;
  }
  TxCasOp* op = txn_op_;
  if (trace_ && trace_->enabled() && op) {
    trace_->record(engine_.now(), id_, "txcas fault injected", op->addr,
                   static_cast<std::int64_t>(kind));
  }
  // Tear the attempt down like a write-phase conflict: no post-abort
  // re-read is needed (the shared value did not change under us), just
  // retry — or degrade, once the non-conflict budget is spent.
  txcas_abort(/*kind=*/1, cause);
}

void Core::txcas_fallback(TxCasOp* op, bool degraded) {
  if (degraded) {
    ++stats_.fallback_cas;
    if (metrics_) metrics_->on_fallback_cas(id_);
  } else {
    ++stats_.fallbacks;
    if (metrics_) metrics_->on_txn_fallback(id_);
  }
  start_rmw(Rmw::kCas, op->addr, op->expected, op->desired,
            DoneValFn([this, op](Value ok) {
    if (ok != 0) {
      ++stats_.txcas_success;
    } else {
      ++stats_.txcas_fail;
    }
    if (metrics_) {
      metrics_->on_txcas_done(id_, static_cast<int>(op->policy.attempts()),
                              ok != 0);
    }
    auto done = std::move(op->done);
    done(ok != 0);
  }));
}

// ---------------------------------------------------------------------------
// Awaitable glue.
// ---------------------------------------------------------------------------

void Core::ValueAwaiter::await_suspend(std::coroutine_handle<> h) {
  DoneValFn done([this, h](Value v) {
    result = v;
    h.resume();
  });
  switch (kind) {
    case 0: core->start_load(addr, std::move(done)); break;
    case 1: core->start_rmw(Rmw::kCas, addr, a0, a1, std::move(done)); break;
    case 2: core->start_rmw(Rmw::kFaa, addr, a0, a1, std::move(done)); break;
    case 3: core->start_rmw(Rmw::kSwap, addr, a0, a1, std::move(done)); break;
    default: assert(false);
  }
}

void Core::VoidAwaiter::await_suspend(std::coroutine_handle<> h) {
  if (kind == 0) {
    core->start_store(addr, v, DoneVoidFn([h] { h.resume(); }));
  } else {
    core->engine_.schedule(cycles == 0 ? 1 : cycles, [h] { h.resume(); });
  }
}

void Core::TxCasAwaiter::await_suspend(std::coroutine_handle<> h) {
  core->start_txcas(addr, expected, desired, cfg,
                    DoneBoolFn([this, h](bool ok) {
    result = ok;
    h.resume();
  }));
}

void Core::PollAwaiter::await_suspend(std::coroutine_handle<> h) {
  core->start_poll(addr, std::move(pred), gap, DoneValFn([this, h](Value v) {
    result = v;
    h.resume();
  }));
}

}  // namespace sbq::sim
