#include "sim/trace.hpp"

#include <cstdio>
#include <iomanip>
#include <ostream>
#include <string_view>

namespace sbq::sim {

void Trace::push(const TraceEvent& e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  ring_[next_] = e;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

void Trace::record(Time t, CoreId node, const char* what, Addr addr,
                   std::int64_t detail) {
  if (!enabled_) return;
  push(TraceEvent{t, node, what, addr, detail});
}

void Trace::record_send(Time t, CoreId src, CoreId dst, MsgType type,
                        Addr addr, std::int64_t requester) {
  if (!enabled_) return;
  TraceEvent e{t, src, "send", addr, requester};
  e.is_send = true;
  e.msg_type = type;
  e.dst = dst;
  push(e);
}

std::vector<TraceEvent> Trace::events() const {
  if (dropped_ == 0) return ring_;
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  return out;
}

void Trace::print(std::ostream& os, Addr only_addr) const {
  for (const auto& e : events()) {
    if (only_addr != 0 && e.addr != only_addr) continue;
    os << std::setw(8) << e.time << "  node " << std::setw(3) << e.node
       << "  ";
    if (e.is_send) {
      os << "send " << msg_type_name(e.msg_type) << " -> " << e.dst;
    } else {
      os << e.what;
    }
    os << "  addr=" << e.addr << "  detail=" << e.detail << "\n";
  }
}

namespace {
// The event vocabulary is ASCII, but escape defensively so the JSONL stays
// well-formed whatever string a future event uses.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}
}  // namespace

void Trace::write_jsonl(std::ostream& os, Addr only_addr) const {
  for (const auto& e : events()) {
    if (only_addr != 0 && e.addr != only_addr) continue;
    os << "{\"t\":" << e.time << ",\"node\":" << e.node << ",\"event\":";
    if (e.is_send) {
      // msg_type_name() is ASCII and needs no escaping.
      os << "\"send " << msg_type_name(e.msg_type) << " -> " << e.dst << '"';
    } else {
      write_json_string(os, e.what);
    }
    os << ",\"addr\":" << e.addr << ",\"detail\":" << e.detail << "}\n";
  }
}

void DebugRing::dump(std::ostream& os) const {
  const std::uint64_t cap = ring_.size();
  const std::uint64_t n = recorded_ < cap ? recorded_ : cap;
  os << "debug ring: last " << n << " of " << recorded_
     << " interconnect messages (oldest first)\n";
  const std::uint64_t first = recorded_ - n;
  for (std::uint64_t i = first; i < recorded_; ++i) {
    const DebugRingEntry& e = ring_[i & mask_];
    os << "  t=" << std::setw(8) << e.time << "  " << std::setw(3) << e.src
       << " -> " << std::setw(3) << e.dst << "  " << msg_type_name(e.type)
       << "  addr=" << e.addr << "  value=" << e.value << "\n";
  }
}

}  // namespace sbq::sim
