#include "replay/divergence.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "sim/trace.hpp"

namespace sbq::replay {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kContext = 256;  // DebugRing-sized context window

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// Digest pass: one cumulative hash + window-end time per `window` sends.
struct DigestObserver {
  std::uint64_t window;
  std::uint64_t h = kFnvOffset;
  std::uint64_t count = 0;
  std::vector<std::uint64_t> digests{};
  std::vector<sim::Time> times{};

  static void cb(void* ctx, sim::Time t, sim::CoreId src, sim::CoreId dst,
                 const sim::Message& msg) {
    auto* o = static_cast<DigestObserver*>(ctx);
    std::uint64_t h = o->h;
    h = mix(h, static_cast<std::uint64_t>(t));
    h = mix(h, static_cast<std::uint64_t>(src));
    h = mix(h, static_cast<std::uint64_t>(dst));
    h = mix(h, static_cast<std::uint64_t>(msg.type));
    h = mix(h, static_cast<std::uint64_t>(msg.addr));
    h = mix(h, static_cast<std::uint64_t>(msg.value));
    o->h = h;
    if (++o->count % o->window == 0) {
      o->digests.push_back(h);
      o->times.push_back(t);
    }
  }
};

// Capture pass: raw events for seq in [lo, hi).
struct CaptureObserver {
  std::uint64_t lo, hi;
  std::uint64_t count = 0;
  std::vector<SendEvent> events{};

  static void cb(void* ctx, sim::Time t, sim::CoreId src, sim::CoreId dst,
                 const sim::Message& msg) {
    auto* o = static_cast<CaptureObserver*>(ctx);
    const std::uint64_t seq = o->count++;
    if (seq < o->lo || seq >= o->hi) return;
    o->events.push_back({t, src, dst, msg.type, msg.addr, msg.value});
  }
};

std::string format_context(const std::vector<SendEvent>& events,
                           std::uint64_t first_seq) {
  sim::DebugRing ring(kContext);
  for (const SendEvent& e : events) {
    ring.record(e.time, e.src, e.dst, e.type, e.addr, e.value);
  }
  std::ostringstream os;
  os << "messages before divergence (first shown has seq " << first_seq
     << ")\n";
  ring.dump(os);
  return os.str();
}

}  // namespace

DivergenceReport find_divergence(const ObservedRunFn& run_a,
                                 const ObservedRunFn& run_b,
                                 std::uint64_t window) {
  if (window == 0) window = 1;
  DivergenceReport report;

  DigestObserver da{window}, db{window};
  run_a(&DigestObserver::cb, &da);
  run_b(&DigestObserver::cb, &db);
  report.total_a = da.count;
  report.total_b = db.count;

  // Binary search the first window whose cumulative digest (or end time)
  // differs; windows before it are pairwise identical streams.
  const std::size_t windows = std::min(da.digests.size(), db.digests.size());
  std::size_t lo = 0, hi = windows;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool same =
        da.digests[mid] == db.digests[mid] && da.times[mid] == db.times[mid];
    if (same) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const bool tail_same =
      lo == windows && da.h == db.h && da.count == db.count;
  if (tail_same) return report;  // identical streams

  // Divergence lies in window `lo` (or in the ragged tail past the last
  // full window). Capture that window plus the ring context before it.
  const std::uint64_t div_window_start = static_cast<std::uint64_t>(lo) * window;
  const std::uint64_t cap_lo =
      div_window_start > kContext ? div_window_start - kContext : 0;
  const std::uint64_t cap_hi = div_window_start + window + 1;

  CaptureObserver ca{cap_lo, cap_hi}, cb_{cap_lo, cap_hi};
  run_a(&CaptureObserver::cb, &ca);
  run_b(&CaptureObserver::cb, &cb_);

  // Linear scan inside the captured slice for the first differing seq.
  const std::size_t na = ca.events.size();
  const std::size_t nb = cb_.events.size();
  std::size_t i = 0;
  while (i < na && i < nb && ca.events[i] == cb_.events[i]) ++i;

  report.diverged = true;
  report.seq = cap_lo + i;
  if (i < na) report.a = ca.events[i];
  if (i < nb) report.b = cb_.events[i];
  report.prefix_only = i >= na || i >= nb;

  const auto prefix = [&](const std::vector<SendEvent>& ev, std::size_t end) {
    std::vector<SendEvent> out(ev.begin(),
                               ev.begin() + static_cast<std::ptrdiff_t>(
                                                std::min(end + 1, ev.size())));
    return out;
  };
  const std::uint64_t ctx_first =
      report.seq > kContext ? report.seq - kContext : 0;
  report.context_a = format_context(prefix(ca.events, i), ctx_first);
  report.context_b = format_context(prefix(cb_.events, i), ctx_first);
  return report;
}

std::string format_divergence(const DivergenceReport& report) {
  std::ostringstream os;
  if (!report.diverged) {
    os << "no divergence: " << report.total_a
       << " interconnect messages, identical streams\n";
    return os.str();
  }
  os << "first divergent message: seq " << report.seq << "\n";
  auto side = [&](const char* name, const SendEvent& e, std::uint64_t total) {
    os << "  side " << name << " (" << total << " messages total): ";
    if (report.seq >= total) {
      os << "stream ended\n";
      return;
    }
    os << "t=" << e.time << "  " << e.src << " -> " << e.dst << "  "
       << sim::msg_type_name(e.type) << "  addr=" << e.addr
       << "  value=" << e.value << "\n";
  };
  side("A", report.a, report.total_a);
  side("B", report.b, report.total_b);
  os << "--- side A " << report.context_a;
  os << "--- side B " << report.context_b;
  return os.str();
}

}  // namespace sbq::replay
