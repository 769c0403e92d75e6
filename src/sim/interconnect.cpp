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
    links_.resize(static_cast<std::size_t>(cfg_.sockets) *
                  static_cast<std::size_t>(cfg_.sockets));
  }
  const FaultPlan& plan = cfg_.fault_plan;
  if (plan.jitter_active()) {
    jitter_on_ = true;
    jitter_rng_state_ = SplitMix64(plan.seed ^ 0xd1b54a32d192ed03ULL).next();
    const double r = plan.message_jitter_rate;
    jitter_threshold_ =
        r >= 1.0 ? 0xffffffffu
                 : static_cast<std::uint32_t>(r <= 0.0 ? 0 : r * 4294967296.0);
    last_arrival_.assign(nodes_ * nodes_, 0);
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
  ++sent_;
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
    Link& l = link(ss, ds);
    const Time now = engine_.now();
    const Time depart = std::max(now, l.busy_until);
    l.busy_until = depart + cfg_.link_occupancy;
    const Time wait = depart - now;
    delay = wait + cfg_.link_occupancy + cfg_.inter_latency;
    ++link_msgs_;
    link_wait_cycles_ += wait;
  } else if (ss != ds) {
    delay = cfg_.inter_latency;
  }
  if (jitter_on_) {
    // Draw jitter per message; then clamp EVERY arrival (jittered or not)
    // to the pair's previous arrival so per-(src,dst) FIFO order survives.
    std::uint64_t z = (jitter_rng_state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    if (static_cast<std::uint32_t>(z >> 32) < jitter_threshold_) {
      const Time extra =
          1 + static_cast<Time>(z & 0xffffffffu) % cfg_.fault_plan.max_message_jitter;
      delay += extra;
      ++jittered_msgs_;
      jitter_cycles_ += extra;
    }
    Time& last = last_arrival_[static_cast<std::size_t>(src) * nodes_ +
                              static_cast<std::size_t>(dst)];
    const Time now = engine_.now();
    Time arrival = now + delay;
    if (arrival < last) {
      jitter_cycles_ += last - arrival;
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

Interconnect::State Interconnect::save_state() const {
  State s;
  s.sent = sent_;
  s.link_msgs = link_msgs_;
  s.link_wait_cycles = link_wait_cycles_;
  s.link_busy_until.reserve(links_.size());
  for (const Link& l : links_) s.link_busy_until.push_back(l.busy_until);
  s.jitter_rng_state = jitter_rng_state_;
  s.jittered_msgs = jittered_msgs_;
  s.jitter_cycles = jitter_cycles_;
  s.last_arrival = last_arrival_;
  return s;
}

void Interconnect::restore_state(const State& s) {
  assert(s.link_busy_until.size() == links_.size() &&
         "snapshot taken under a different interconnect topology");
  assert(s.last_arrival.size() == last_arrival_.size() &&
         "snapshot taken under a different jitter configuration");
  sent_ = s.sent;
  link_msgs_ = s.link_msgs;
  link_wait_cycles_ = s.link_wait_cycles;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].busy_until = s.link_busy_until[i];
  }
  jitter_rng_state_ = s.jitter_rng_state;
  jittered_msgs_ = s.jittered_msgs;
  jitter_cycles_ = s.jitter_cycles;
  last_arrival_ = s.last_arrival;
}

}  // namespace sbq::sim
