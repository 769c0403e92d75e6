#include "sim/directory.hpp"

#include <cassert>

#include "sim/trace.hpp"

namespace sbq::sim {

Directory::Directory(Engine& engine, Interconnect& net, LineTable& lines,
                     const MachineConfig& cfg, Trace* trace)
    : engine_(engine), net_(net), cfg_(cfg), trace_(trace),
      self_(net.directory_id()), lines_(lines) {}

Value Directory::peek(Addr addr) const {
  const LineRecord* line = lines_.find(addr);
  return line == nullptr ? 0 : line->llc;
}

void Directory::poke(Addr addr, Value value) {
  LineRecord& line = lines_[addr];
  assert(line.state == LineState::kInvalid || line.state == LineState::kShared);
  // A cached copy would keep the old value: the line's one cached value
  // must stay equal to every valid copy.
  assert(!line.cores.any_valid() && "poke of a line a core holds");
  line.llc = value;
}

Directory::LineState Directory::line_state(Addr addr) const {
  const LineRecord* line = lines_.find(addr);
  return line == nullptr ? LineState::kInvalid : line->state;
}

CoreId Directory::line_owner(Addr addr) const {
  const LineRecord* line = lines_.find(addr);
  return line == nullptr ? -1 : line->owner;
}

std::size_t Directory::sharer_count(Addr addr) const {
  const LineRecord* line = lines_.find(addr);
  return line == nullptr ? 0 : line->sharers.size();
}

void Directory::handle(const Message& msg) {
  // Model a per-request occupancy: simultaneous arrivals serialize a bit.
  const Time start = std::max(engine_.now(), state_.busy_until);
  state_.busy_until = start + cfg_.dir_occupancy;
  const Time wait = start - engine_.now() + cfg_.dir_occupancy;
  if (wait == 0) {
    process(msg);
  } else {
    engine_.schedule_typed(wait, EventKind::kDirProcess, self_, msg);
  }
}

void Directory::process(const Message& msg) {
  LineRecord& line = lines_[msg.addr];
  switch (msg.type) {
    case MsgType::kGetS:
      process_gets(line, msg);
      return;
    case MsgType::kGetM:
      process_getm(line, msg);
      return;
    case MsgType::kWbData:
      // Owner write-back after an M->shared transition. Non-blocking: while
      // the WB was in flight, reads were served by the (still-Owned) owner.
      // If a writer intervened (state no longer Owned with this owner), the
      // write-back is stale and dropped.
      if (line.state == LineState::kOwned && line.owner == msg.src) {
        ++state_.stats.wb_accepted;
        line.llc = msg.value;
        line.sharers.insert(line.owner);
        line.owner = -1;
        line.state = LineState::kShared;
      } else {
        ++state_.stats.wb_dropped;
      }
      return;
    default:
      assert(false && "unexpected message at directory");
  }
}

void Directory::process_gets(LineRecord& line, const Message& msg) {
  const CoreId req = msg.requester;
  switch (line.state) {
    case LineState::kInvalid:
    case LineState::kShared: {
      line.state = LineState::kShared;
      line.sharers.insert(req);
      Message data{.addr = msg.addr, .value = line.llc, .src = self_,
                   .requester = req, .type = MsgType::kData};
      net_.send(self_, req, data);
      return;
    }
    case LineState::kModified:
    case LineState::kOwned: {
      // Forward to the owner; it serves the data and keeps the line in
      // Owned state, so subsequent reads keep flowing without any
      // write-back or directory blocking (MOESI behaviour).
      Message fwd{.addr = msg.addr, .src = self_, .requester = req,
                  .type = MsgType::kFwdGetS};
      net_.send(self_, line.owner, fwd);
      line.sharers.insert(req);
      line.state = LineState::kOwned;
      return;
    }
  }
}

int Directory::invalidate_sharers(LineRecord& line, Addr addr, CoreId req) {
  int acks = 0;
  // Back-to-back Invs in ascending core-id order (the bitmask walk).
  for (CoreId sharer : line.sharers) {
    if (sharer == req) continue;
    ++acks;
    Message inv{.addr = addr, .src = self_, .requester = req,
                .type = MsgType::kInv};
    net_.send(self_, sharer, inv);
  }
  line.sharers.clear();
  return acks;
}

void Directory::process_getm(LineRecord& line, const Message& msg) {
  const CoreId req = msg.requester;
  switch (line.state) {
    case LineState::kInvalid: {
      line.state = LineState::kModified;
      line.owner = req;
      Message data{.addr = msg.addr, .value = line.llc, .src = self_,
                   .requester = req, .type = MsgType::kData};
      net_.send(self_, req, data);
      return;
    }
    case LineState::kShared: {
      // Data + ack count to the requester; back-to-back invalidations to
      // every other sharer, which ack directly to the requester. This is
      // the concurrent-abort shower of Figure 2b.
      const int acks = invalidate_sharers(line, msg.addr, req);
      Message data{.addr = msg.addr, .value = line.llc, .src = self_,
                   .requester = req, .ack_count = acks, .type = MsgType::kData};
      net_.send(self_, req, data);
      line.state = LineState::kModified;
      line.owner = req;
      return;
    }
    case LineState::kOwned: {
      const CoreId owner = line.owner;
      if (owner == req) {
        // Owner upgrade O -> M: it already holds the current data; the
        // Data message only carries the ack count (the core keeps its own
        // valid copy — the LLC value is stale in Owned state).
        const int acks = invalidate_sharers(line, msg.addr, req);
        Message data{.addr = msg.addr, .src = self_, .requester = req,
                     .ack_count = acks, .type = MsgType::kData};
        net_.send(self_, req, data);
      } else {
        // Data comes from the previous owner (Fwd-GetM carries the ack
        // count so the owner's response can convey it); the remaining
        // sharers are invalidated back-to-back.
        line.sharers.erase(owner);  // owner is not in sharers, but be safe
        const int acks = invalidate_sharers(line, msg.addr, req);
        Message fwd{.addr = msg.addr, .src = self_, .requester = req,
                    .ack_count = acks, .type = MsgType::kFwdGetM};
        net_.send(self_, owner, fwd);
      }
      line.state = LineState::kModified;
      line.owner = req;
      return;
    }
    case LineState::kModified: {
      // Non-blocking owner hand-off: re-point ownership immediately and
      // forward; the data travels previous-owner -> new owner. Chains of
      // these are the serialized hand-offs of Figure 2a.
      Message fwd{.addr = msg.addr, .src = self_, .requester = req,
                  .type = MsgType::kFwdGetM};
      net_.send(self_, line.owner, fwd);
      line.owner = req;
      return;
    }
  }
}

}  // namespace sbq::sim
