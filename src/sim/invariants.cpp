#include "sim/invariants.hpp"

#include <sstream>

#include "sim/core.hpp"
#include "sim/directory.hpp"
#include "sim/sharer_set.hpp"

namespace sbq::sim {

namespace {

const char* core_state_name(Core::LineState s) noexcept {
  switch (s) {
    case Core::LineState::kInvalid: return "I";
    case Core::LineState::kShared: return "S";
    case Core::LineState::kModified: return "M";
    case Core::LineState::kOwned: return "O";
  }
  return "?";
}

}  // namespace

std::string check_swmr_invariants(
    const Directory& dir, const std::vector<std::unique_ptr<Core>>& cores) {
  std::string violation;
  const int n = static_cast<int>(cores.size());

  dir.visit_lines([&](Addr addr, Directory::LineState state, CoreId owner,
                      const SharerSet& sharers) {
    if (!violation.empty()) return;  // report the first violation only

    // 1. SWMR across the private caches.
    CoreId modified_holder = -1;
    for (int c = 0; c < n; ++c) {
      const Core::LineState cs = cores[static_cast<std::size_t>(c)]->line_state(addr);
      if (cs == Core::LineState::kModified) {
        if (modified_holder >= 0) {
          std::ostringstream os;
          os << "SWMR violated: addr " << addr << " Modified in cores "
             << modified_holder << " and " << c;
          violation = os.str();
          return;
        }
        modified_holder = c;
      }
    }
    if (modified_holder >= 0) {
      for (int c = 0; c < n; ++c) {
        if (c == modified_holder) continue;
        const Core::LineState cs =
            cores[static_cast<std::size_t>(c)]->line_state(addr);
        if (cs == Core::LineState::kShared || cs == Core::LineState::kOwned) {
          std::ostringstream os;
          os << "SWMR violated: addr " << addr << " Modified in core "
             << modified_holder << " but " << core_state_name(cs)
             << " in core " << c;
          violation = os.str();
          return;
        }
      }
    }

    // 2. Directory owner validity.
    if (state == Directory::LineState::kModified ||
        state == Directory::LineState::kOwned) {
      if (owner < 0 || owner >= n) {
        std::ostringstream os;
        os << "stale owner: addr " << addr << " dir state "
           << (state == Directory::LineState::kModified ? "M" : "O")
           << " but owner id " << owner << " out of range";
        violation = os.str();
        return;
      }
      const Core& oc = *cores[static_cast<std::size_t>(owner)];
      const Core::LineState os_ = oc.line_state(addr);
      if (os_ != Core::LineState::kModified &&
          os_ != Core::LineState::kOwned && !oc.has_pending(addr)) {
        std::ostringstream os;
        os << "stale owner: addr " << addr << " dir owner " << owner
           << " holds the line " << core_state_name(os_)
           << " with no request in flight";
        violation = os.str();
        return;
      }
    }

    // 3. Sharer validity.
    for (CoreId s : sharers) {
      if (s < 0 || s >= n) {
        std::ostringstream os;
        os << "sharer set inconsistent: addr " << addr << " sharer id " << s
           << " out of range";
        violation = os.str();
        return;
      }
      const Core& sc = *cores[static_cast<std::size_t>(s)];
      const Core::LineState ss = sc.line_state(addr);
      if (ss != Core::LineState::kShared && ss != Core::LineState::kOwned &&
          ss != Core::LineState::kModified && !sc.has_pending(addr)) {
        std::ostringstream os;
        os << "sharer set inconsistent: addr " << addr << " dir sharer " << s
           << " holds the line " << core_state_name(ss)
           << " with no request in flight";
        violation = os.str();
        return;
      }
    }
  });

  return violation;
}

}  // namespace sbq::sim
