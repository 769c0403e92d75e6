#include "sim/interconnect.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"
#include "sim/trace.hpp"

namespace sbq::sim {

const char* msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::kGetS: return "GetS";
    case MsgType::kGetM: return "GetM";
    case MsgType::kFwdGetS: return "Fwd-GetS";
    case MsgType::kFwdGetM: return "Fwd-GetM";
    case MsgType::kInv: return "Inv";
    case MsgType::kInvAck: return "Inv-Ack";
    case MsgType::kData: return "Data";
    case MsgType::kWbData: return "WB-Data";
  }
  return "?";
}

Interconnect::Interconnect(Engine& engine, const MachineConfig& cfg,
                           Trace* trace, DebugRing* debug_ring)
    : engine_(engine), cfg_(cfg), trace_(trace), debug_ring_(debug_ring),
      nodes_(static_cast<std::size_t>(cfg.cores) + 1) {
  if (cfg_.interconnect_model == InterconnectModel::kLink) {
    state_.link_busy_until.resize(static_cast<std::size_t>(cfg_.sockets) *
                                  static_cast<std::size_t>(cfg_.sockets));
  }
  const FaultPlan& plan = cfg_.fault_plan;
  if (plan.jitter_active()) {
    jitter_on_ = true;
    state_.jitter_rng_state =
        SplitMix64(plan.seed ^ 0xd1b54a32d192ed03ULL).next();
    const double r = plan.message_jitter_rate;
    jitter_threshold_ =
        r >= 1.0 ? 0xffffffffu
                 : static_cast<std::uint32_t>(r <= 0.0 ? 0 : r * 4294967296.0);
    state_.last_arrival.assign(nodes_ * nodes_, 0);
  }
  // Node -> socket, once: cores fill the sockets in contiguous blocks, and
  // the directory sits on socket 0.
  const int per_socket = (cfg_.cores + cfg_.sockets - 1) / cfg_.sockets;
  socket_of_.assign(nodes_, 0);
  for (CoreId core = 0; core < cfg_.cores; ++core) {
    socket_of_[static_cast<std::size_t>(core)] = core / per_socket;
  }
}

Time Interconnect::latency(CoreId src, CoreId dst) const noexcept {
  if (socket_of(src) == socket_of(dst)) return cfg_.intra_latency;
  return cfg_.interconnect_model == InterconnectModel::kLink
             ? cfg_.inter_latency + cfg_.link_occupancy
             : cfg_.inter_latency;
}

void Interconnect::send(CoreId src, CoreId dst, Message msg) {
  msg.src = src;
  ++state_.sent;
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->record_send(engine_.now(), src, dst, msg.type, msg.addr,
                        msg.requester);
  }
  Time delay = cfg_.intra_latency;  // on-chip: flat under either model
  const int ss = socket_of(src);
  const int ds = socket_of(dst);
  if (ss != ds && cfg_.interconnect_model == InterconnectModel::kLink) {
    // Occupancy queue: depart when the link frees up, hold it for
    // link_occupancy cycles, then traverse the hop. busy_until advancing
    // monotonically per link is exactly a FIFO queue of earlier senders.
    Time& busy_until = link_busy_until(ss, ds);
    const Time now = engine_.now();
    const Time depart = std::max(now, busy_until);
    busy_until = depart + cfg_.link_occupancy;
    const Time wait = depart - now;
    delay = wait + cfg_.link_occupancy + cfg_.inter_latency;
    ++state_.link_msgs;
    state_.link_wait_cycles += wait;
  } else if (ss != ds) {
    delay = cfg_.inter_latency;
  }
  if (jitter_on_) {
    // Draw jitter per message; then clamp EVERY arrival (jittered or not)
    // to the pair's previous arrival so per-(src,dst) FIFO order survives.
    std::uint64_t z = (state_.jitter_rng_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    if (static_cast<std::uint32_t>(z >> 32) < jitter_threshold_) {
      const Time extra =
          1 + static_cast<Time>(z & 0xffffffffu) % cfg_.fault_plan.max_message_jitter;
      delay += extra;
      ++state_.jittered_msgs;
      state_.jitter_cycles += extra;
    }
    Time& last = state_.last_arrival[static_cast<std::size_t>(src) * nodes_ +
                                     static_cast<std::size_t>(dst)];
    const Time now = engine_.now();
    Time arrival = now + delay;
    if (arrival < last) {
      state_.jitter_cycles += last - arrival;
      arrival = last;
      delay = arrival - now;
    }
    last = arrival;
  }
  if (debug_ring_ != nullptr) {
    debug_ring_->record(engine_.now(), src, dst, msg.type, msg.addr, msg.value);
  }
  if (send_observer_ != nullptr) {
    send_observer_(send_observer_ctx_, engine_.now(), src, dst, msg);
  }
  assert(dst >= 0 && static_cast<std::size_t>(dst) < nodes_);
  engine_.schedule_typed(delay, EventKind::kDeliver, dst, msg);
}

void Interconnect::restore_state(const State& s) {
  assert(s.link_busy_until.size() == state_.link_busy_until.size() &&
         "snapshot taken under a different interconnect topology");
  assert(s.last_arrival.size() == state_.last_arrival.size() &&
         "snapshot taken under a different jitter configuration");
  state_ = s;
}

}  // namespace sbq::sim
