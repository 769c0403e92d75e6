// Protocol message handling for a core's private cache: data/ack collection,
// invalidations, owner forwards, stalls, and the HTM conflict reactions
// (requester-wins aborts, tripped writer, §3.4.1 fix).
//
// Owned-state subtlety: a core that holds a line in O (valid data) and has
// its own GetM upgrade in flight can receive forwards for requests the
// directory ordered *before* its upgrade. Directory-to-core delivery is
// FIFO, so "our GetM's directory response has not arrived yet"
// (p.got_data == false) identifies exactly those forwards — they must be
// answered immediately from the valid O copy (stalling them would deadlock
// the hand-off chain). Forwards that arrive after our response are ordered
// after our request and stall until our operation completes, which is the
// §3.2 stall that serializes RMW chains.
#include "sim/core.hpp"

#include "sim/trace.hpp"

namespace sbq::sim {

void Core::handle(const Message& msg) {
  switch (msg.type) {
    case MsgType::kData: on_data(msg); return;
    case MsgType::kInvAck: on_inv_ack(msg); return;
    case MsgType::kInv: on_inv(msg); return;
    case MsgType::kFwdGetS: on_fwd_gets(msg); return;
    case MsgType::kFwdGetM: on_fwd_getm(msg); return;
    default: assert(false && "unexpected message at core");
  }
}

void Core::on_data(const Message& msg) {
  Pending* p = pending(msg.addr);
  assert(p != nullptr && "Data with no pending request");
  p->got_data = true;
  p->data = msg.value;
  p->acks_expected = msg.ack_count;
  if (!p->want_m || p->acks_got >= p->acks_expected) {
    finish_request(msg.addr, *p);
  }
}

void Core::on_inv_ack(const Message& msg) {
  metrics_.on_inv_ack(id_);
  Pending* p = pending(msg.addr);
  assert(p != nullptr && "Inv-Ack with no pending request");
  ++p->acks_got;
  if (p->got_data && p->acks_got >= p->acks_expected && !p->locked) {
    finish_request(msg.addr, *p);
  }
}

void Core::on_inv(const Message& msg) {
  const Addr a = msg.addr;
  metrics_.on_inv(id_);
  Pending* p = pending(a);
  if (p != nullptr && !p->want_m && !p->got_data) {
    // Inv raced ahead of the data for our GetS (the data is coming from an
    // owner, the Inv straight from the directory): observe the data once,
    // then invalidate and ack when the load releases the line.
    p->inv_after_data = true;
    p->deferred_inv_requester = msg.requester;
    return;
  }
  // Invalidate our shared copy (if any) and ack the requesting writer.
  // This is the concurrent-abort path of Figure 2b: every transactional
  // reader of the line receives its Inv back-to-back and aborts without
  // any serialization.
  LineRecord* line = lines_.find(a);
  if (line != nullptr && (line->cores.get(id_) == LineState::kShared ||
                          line->cores.get(id_) == LineState::kOwned)) {
    // An Owned copy can be invalidated too: after its write-back landed the
    // directory treats the ex-owner as an ordinary sharer.
    line->cores.set(id_, LineState::kInvalid);
  }
  maybe_txn_conflict_on_loss(a, /*losing_all_permissions=*/true);
  Message ack{.addr = a, .src = id_, .requester = msg.requester,
              .type = MsgType::kInvAck};
  net_.send(id_, msg.requester, ack);
}

// True if we hold a valid Owned copy while our own GetM's directory
// response has not arrived — i.e. the incoming forward belongs to a request
// ordered before ours and must be served right away.
bool Core::fwd_predates_pending_request(Addr a, const Pending& p) const {
  return !p.got_data && line_state(a) == LineState::kOwned;
}

void Core::on_fwd_gets(const Message& msg) {
  const Addr a = msg.addr;
  metrics_.on_fwd(id_, /*getm=*/false);
  if (Pending* p = pending(a)) {
    if (fwd_predates_pending_request(a, *p)) {
      // The read was ordered before our own upgrade: serve it from the
      // valid Owned copy right away, with no transactional conflict — a
      // transactional write is still store-buffered (invisible), and the
      // reader is ordered before it. Stalling here can deadlock: the
      // reader may owe a deferred Inv-Ack that our upgrade is waiting on.
      answer_fwd_gets(msg);
      return;
    }
    const bool txn_window = p->txn_write && txn_.active &&
                            txn_.in_write_phase && txn_.addr == a &&
                            !p->locked;
    if (txn_window && cfg_.uarch_fix) {
      // §3.4.1: the core is blocked in _xend with a single pending GetM and
      // the conflicting request is a read — stall it until commit. (Safe:
      // the reader is not one of the sharers whose acks we are waiting on.)
      metrics_.on_uarch_fix_stall(id_);
      if (trace_ && trace_->enabled()) {
        trace_->record(engine_.now(), id_, "uarch-fix stall Fwd-GetS", a,
                       msg.requester);
      }
      stall_fwd(msg);
      return;
    }
    if (txn_window) {
      // Tripped writer (§3.4): the read hit our commit window.
      txcas_abort(/*kind=*/1, AbortCause::kTrippedWriter);
    }
    stall_fwd(msg);
    return;
  }
  answer_fwd_gets(msg);
}

void Core::on_fwd_getm(const Message& msg) {
  const Addr a = msg.addr;
  metrics_.on_fwd(id_, /*getm=*/true);
  if (const Pending* p = pending(a)) {
    if (fwd_predates_pending_request(a, *p)) {
      // Ordered before our upgrade: the writer takes our Owned copy now
      // (requester-wins: this also aborts a transaction using the line —
      // handled inside answer_fwd_getm).
      answer_fwd_getm(msg);
      return;
    }
    // Standard §3.2 behaviour: a core stalls an incoming Fwd-GetM until its
    // own GetM (and the RMW on top of it) completes. This builds the
    // serialized hand-off chain of Figure 2a. Transactional writers are
    // not aborted by stalled writes — in line with the paper's observation
    // that write-phase conflicts are overwhelmingly caused by reads.
    stall_fwd(msg);
    return;
  }
  answer_fwd_getm(msg);
}

void Core::stall_fwd(const Message& msg) {
  assert(stalled_fwds_.size() + 1 < static_cast<std::size_t>(cfg_.cores) &&
         "a forward from each other core at most");
  stalled_fwds_.push_back(msg);
}

void Core::answer_fwd_gets(const Message& msg) {
  const Addr a = msg.addr;
  LineRecord& line = lines_.at(a);
  const LineState held = line.cores.get(id_);
  assert(held == LineState::kModified || held == LineState::kOwned);
  if (txn_.active && txn_.addr == a && txn_.in_write_phase &&
      pending(a) == nullptr) {
    // Rare hit-window case: transaction writing an already-owned line when
    // the read arrives. Requester-wins: abort (the commit had not applied).
    txcas_abort(/*kind=*/1, AbortCause::kTrippedWriter);
  }
  // Serve the reader and stay in Owned state (able to serve more readers)
  // while the write-back travels to the LLC; once it lands, the directory
  // flips the line to Shared and the LLC serves subsequent reads — the
  // MESIF-style behaviour of Intel parts (forwarding + inclusive LLC copy),
  // with no directory blocking.
  const bool first_downgrade = held == LineState::kModified;
  line.cores.set(id_, LineState::kOwned);
  Message data{.addr = a, .value = line.value, .src = id_,
               .requester = msg.requester, .type = MsgType::kData};
  net_.send(id_, msg.requester, data);
  if (first_downgrade) {
    metrics_.on_wb(id_);
    Message wb{.addr = a, .value = line.value, .src = id_, .requester = id_,
               .type = MsgType::kWbData};
    net_.send(id_, dir_, wb);
  }
}

void Core::answer_fwd_getm(const Message& msg) {
  const Addr a = msg.addr;
  LineRecord& line = lines_.at(a);
  assert(line.cores.get(id_) == LineState::kModified ||
         line.cores.get(id_) == LineState::kOwned);
  maybe_txn_conflict_on_loss(a, /*losing_all_permissions=*/true);
  line.cores.set(id_, LineState::kInvalid);
  // The Fwd-GetM carries the invalidation-ack count the new owner expects
  // (non-zero when the directory invalidated sharers of an Owned line).
  Message data{.addr = a, .value = line.value, .src = id_,
               .requester = msg.requester, .ack_count = msg.ack_count,
               .type = MsgType::kData};
  net_.send(id_, msg.requester, data);
}

void Core::maybe_txn_conflict_on_loss(Addr a, bool losing_all_permissions) {
  if (losing_all_permissions && poll_.parked && op_.addr == a) poll_wake();
  if (!txn_.active || txn_.addr != a) return;
  if (txn_.in_write_phase) {
    // Conflict in the outer transaction: immediate retry (Algorithm 1
    // lines 16–18). Fwd-GetS tripping is handled by on_fwd_gets; this path
    // covers Inv (another writer won while we were upgrading) and
    // Fwd-GetM on an owned line.
    txcas_abort(/*kind=*/1, AbortCause::kConflict);
    return;
  }
  if (txn_.read_marked && losing_all_permissions) {
    // Conflict in the nested (read) phase: Figure 2b's concurrent abort.
    txcas_abort(/*kind=*/0, AbortCause::kConflict);
  }
  // A downgrade (losing only write permission) does not disturb a reader.
}

}  // namespace sbq::sim
