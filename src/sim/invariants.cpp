#include "sim/invariants.hpp"

#include <sstream>

#include "sim/core.hpp"
#include "sim/line_table.hpp"

namespace sbq::sim {

namespace {

const char* state_name(LineState s) noexcept {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kModified: return "M";
    case LineState::kOwned: return "O";
  }
  return "?";
}

// The first violation on one line, or an empty string.
std::string check_line(Addr addr, const LineRecord& line,
                       const std::vector<std::unique_ptr<Core>>& cores) {
  const int n = static_cast<int>(cores.size());
  std::ostringstream os;

  // 1. SWMR across the private caches.
  CoreId modified_holder = -1;
  for (int c = 0; c < n; ++c) {
    if (line.cores.get(c) != LineState::kModified) continue;
    if (modified_holder >= 0) {
      os << "SWMR violated: addr " << addr << " Modified in cores "
         << modified_holder << " and " << c;
      return os.str();
    }
    modified_holder = c;
  }
  if (modified_holder >= 0) {
    for (int c = 0; c < n; ++c) {
      if (c == modified_holder) continue;
      const LineState cs = line.cores.get(c);
      if (cs == LineState::kShared || cs == LineState::kOwned) {
        os << "SWMR violated: addr " << addr << " Modified in core "
           << modified_holder << " but " << state_name(cs) << " in core "
           << c;
        return os.str();
      }
    }
  }

  // 2. Directory owner validity.
  if (line.state == LineState::kModified || line.state == LineState::kOwned) {
    const CoreId owner = line.owner;
    if (owner < 0 || owner >= n) {
      os << "stale owner: addr " << addr << " dir state "
         << state_name(line.state) << " but owner id " << owner
         << " out of range";
      return os.str();
    }
    const LineState held = line.cores.get(owner);
    if (held != LineState::kModified && held != LineState::kOwned &&
        !cores[static_cast<std::size_t>(owner)]->has_pending(addr)) {
      os << "stale owner: addr " << addr << " dir owner " << owner
         << " holds the line " << state_name(held)
         << " with no request in flight";
      return os.str();
    }
  }

  // 3. Sharer validity.
  for (CoreId s : line.sharers) {
    if (s < 0 || s >= n) {
      os << "sharer set inconsistent: addr " << addr << " sharer id " << s
         << " out of range";
      return os.str();
    }
    const LineState held = line.cores.get(s);
    if (held == LineState::kInvalid &&
        !cores[static_cast<std::size_t>(s)]->has_pending(addr)) {
      os << "sharer set inconsistent: addr " << addr << " dir sharer " << s
         << " holds the line " << state_name(held)
         << " with no request in flight";
      return os.str();
    }
  }
  return {};
}

}  // namespace

std::string check_swmr_invariants(
    const LineTable& lines, const std::vector<std::unique_ptr<Core>>& cores) {
  for (const auto& [addr, line] : lines) {
    std::string violation = check_line(addr, line, cores);
    if (!violation.empty()) return violation;  // the first violation only
  }
  return {};
}

}  // namespace sbq::sim
