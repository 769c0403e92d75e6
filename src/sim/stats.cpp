#include "sim/stats.hpp"

namespace sbq::sim {

const char* abort_cause_name(AbortCause c) noexcept {
  switch (c) {
    case AbortCause::kConflict: return "conflict";
    case AbortCause::kCapacity: return "capacity";
    case AbortCause::kTrippedWriter: return "tripped_writer";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kInterrupt: return "interrupt";
    case AbortCause::kSpurious: return "spurious";
  }
  return "?";
}

namespace {

// add_counts's visitor: its first walk copies a struct's counts out, its
// second adds them into another struct's.
template <std::size_t MaxCounts>
struct CountAdder {
  std::array<std::uint64_t, MaxCounts> counts{};
  std::size_t n = 0;
  bool adding = false;
  void operator()(const char*, std::uint64_t& x) {
    if (adding) {
      x += counts[n++];
    } else {
      counts[n++] = x;
    }
  }
  template <std::size_t N>
  void operator()(const char* name, std::array<std::uint64_t, N>& a) {
    for (std::uint64_t& x : a) (*this)(name, x);
  }
};

// Adds `from`'s counts into `into`, field by field. Every field of a
// counter struct is a count or an array of counts.
template <class Counters>
void add_counts(Counters& into, const Counters& from) {
  CountAdder<sizeof(Counters) / sizeof(std::uint64_t)> adder;
  visit_fields(from, adder);
  adder.n = 0;
  adder.adding = true;
  into.fields(adder);
}

}  // namespace

Stats::Stats(int cores)
    : cores_(static_cast<std::size_t>(cores < 0 ? 0 : cores)) {}

ProtocolCounters Stats::protocol() const {
  ProtocolCounters sum;
  for (const CoreCounters& c : cores_) add_counts(sum, c.protocol);
  return sum;
}

HtmCounters Stats::htm() const {
  HtmCounters sum;
  for (const CoreCounters& c : cores_) add_counts(sum, c.htm);
  return sum;
}

void Stats::on_request(CoreId core, bool want_m) {
  ProtocolCounters& p = row(core).protocol;
  ++(want_m ? p.getm : p.gets);
}

void Stats::on_fwd(CoreId owner, bool getm) {
  ProtocolCounters& p = row(owner).protocol;
  ++(getm ? p.fwd_getm : p.fwd_gets);
}

void Stats::on_inv(CoreId sharer) { ++row(sharer).protocol.inv; }

void Stats::on_inv_ack(CoreId requester) { ++row(requester).protocol.inv_ack; }

void Stats::on_wb(CoreId owner) { ++row(owner).protocol.wb_data; }

void Stats::on_txcas_call(CoreId c) { ++row(c).htm.calls; }

void Stats::on_txn_attempt(CoreId c) { ++row(c).htm.attempts; }

void Stats::on_txn_commit(CoreId c) { ++row(c).htm.commits; }

void Stats::on_txn_abort(CoreId c, AbortCause cause, bool read_phase) {
  HtmCounters& h = row(c).htm;
  ++h.aborts[static_cast<std::size_t>(cause)];
  if (read_phase) ++h.read_conflicts;
}

void Stats::on_txn_fallback(CoreId c) { ++row(c).htm.fallbacks; }

void Stats::on_fallback_cas(CoreId c) { ++row(c).htm.fallback_cas; }

void Stats::on_uarch_fix_stall(CoreId c) { ++row(c).htm.uarch_fix_stalls; }

void Stats::on_txcas_done(CoreId c, int attempts, bool success) {
  int bucket = attempts < 1 ? 0 : attempts - 1;
  if (bucket >= HtmCounters::kRetryBuckets) {
    bucket = HtmCounters::kRetryBuckets - 1;
  }
  HtmCounters& h = row(c).htm;
  ++h.retry_histogram[static_cast<std::size_t>(bucket)];
  if (success) ++h.successes;
}

void Stats::on_policy_delay(bool intra, Time cycles) {
  if (intra) {
    policy_.intra_delay_cycles += cycles;
  } else {
    policy_.post_delay_cycles += cycles;
  }
}

void Stats::on_basket_append(bool won) {
  if (won) {
    ++basket_.appends_won;
  } else {
    ++basket_.appends_lost;
  }
}

void Stats::on_basket_stale_tail() { ++basket_.stale_tails; }

void Stats::on_basket_close(std::uint64_t occupancy) {
  ++basket_.closes;
  basket_.occupancy_sum += occupancy;
  if (occupancy < basket_.occupancy_min) basket_.occupancy_min = occupancy;
  if (occupancy > basket_.occupancy_max) basket_.occupancy_max = occupancy;
}

void Stats::on_basket_extract(bool got_element) {
  if (got_element) {
    ++basket_.extracted;
  } else {
    ++basket_.empty_swaps;
  }
}

void Stats::on_basket_node(bool reused) {
  if (reused) {
    ++basket_.node_reuses;
  } else {
    ++basket_.fresh_allocs;
  }
}

}  // namespace sbq::sim
