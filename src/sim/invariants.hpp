// Runtime coherence invariant checking (opt-in via
// MachineConfig::check_invariants; always compiled, so it works in the
// default RelWithDebInfo build where asserts are dead).
//
// After every delivered protocol message the machine can verify the
// single-writer/multiple-reader contract between the directory's metadata
// and the cores' private caches. The checks are written against the
// protocol's *stable plus legal-transient* states — messages in flight mean
// a core may lag the directory (an Inv not yet delivered, a hand-off GetM
// not yet completed), so the checker only asserts directions that hold at
// every message boundary:
//
//   1. SWMR: at most one core holds a line Modified; while one does, no
//      other core holds it Shared or Owned.
//   2. Directory owner validity: a line the directory tracks as M/O names
//      an in-range owner that either holds the line M/O or has its own
//      request in flight on it (the non-blocking hand-off window).
//   3. Sharer validity: every directory-tracked sharer either holds the
//      line S/O or has a request in flight on it (data still traveling).
//
// The deliberately *unchecked* direction — "core-valid implies
// directory-sharer" — is legitimately violated while Invs are in flight
// (the directory clears its sharer set when it sends the Invs, before the
// sharers drop their copies).
//
// Both views live in the line table's records (line_table.hpp): the
// directory's fields and one 2-bit state per core, so a record can still
// show two M holders.
//
// check_swmr_invariants returns an empty string when every invariant
// holds, else a human-readable description of the first violation.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace sbq::sim {

class Core;
class LineTable;

std::string check_swmr_invariants(
    const LineTable& lines, const std::vector<std::unique_ptr<Core>>& cores);

}  // namespace sbq::sim
