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

Stats::Stats(int cores)
    : per_core_protocol_(static_cast<std::size_t>(cores < 0 ? 0 : cores)),
      per_core_htm_(static_cast<std::size_t>(cores < 0 ? 0 : cores)) {}

void Stats::on_request(CoreId core, bool want_m) {
  auto& cc = per_core_protocol_.at(static_cast<std::size_t>(core));
  if (want_m) {
    ++protocol_.getm;
    ++cc.getm;
  } else {
    ++protocol_.gets;
    ++cc.gets;
  }
}

void Stats::on_fwd(CoreId owner, bool getm) {
  auto& cc = per_core_protocol_.at(static_cast<std::size_t>(owner));
  if (getm) {
    ++protocol_.fwd_getm;
    ++cc.fwd_getm;
  } else {
    ++protocol_.fwd_gets;
    ++cc.fwd_gets;
  }
}

void Stats::on_inv(CoreId sharer) {
  ++protocol_.inv;
  ++per_core_protocol_.at(static_cast<std::size_t>(sharer)).inv;
}

void Stats::on_inv_ack(CoreId requester) {
  ++protocol_.inv_ack;
  ++per_core_protocol_.at(static_cast<std::size_t>(requester)).inv_ack;
}

void Stats::on_wb(CoreId owner) {
  ++protocol_.wb_data;
  ++per_core_protocol_.at(static_cast<std::size_t>(owner)).wb_data;
}

void Stats::on_txcas_call(CoreId c) {
  ++htm_.calls;
  ++per_core_htm_.at(static_cast<std::size_t>(c)).calls;
}

void Stats::on_txn_attempt(CoreId c) {
  ++htm_.attempts;
  ++per_core_htm_.at(static_cast<std::size_t>(c)).attempts;
}

void Stats::on_txn_commit(CoreId c) {
  ++htm_.commits;
  ++per_core_htm_.at(static_cast<std::size_t>(c)).commits;
}

void Stats::on_txn_abort(CoreId c, AbortCause cause) {
  const auto idx = static_cast<std::size_t>(cause);
  ++htm_.aborts[idx];
  ++per_core_htm_.at(static_cast<std::size_t>(c)).aborts[idx];
}

void Stats::on_txn_fallback(CoreId c) {
  ++htm_.fallbacks;
  ++per_core_htm_.at(static_cast<std::size_t>(c)).fallbacks;
}

void Stats::on_fallback_cas(CoreId c) {
  ++htm_.fallback_cas;
  ++per_core_htm_.at(static_cast<std::size_t>(c)).fallback_cas;
}

void Stats::on_uarch_fix_stall(CoreId c) {
  ++htm_.uarch_fix_stalls;
  ++per_core_htm_.at(static_cast<std::size_t>(c)).uarch_fix_stalls;
}

void Stats::on_txcas_done(CoreId c, int attempts, bool /*success*/) {
  int bucket = attempts < 1 ? 0 : attempts - 1;
  if (bucket >= HtmCounters::kRetryBuckets) {
    bucket = HtmCounters::kRetryBuckets - 1;
  }
  const auto b = static_cast<std::size_t>(bucket);
  ++htm_.retry_histogram[b];
  ++per_core_htm_.at(static_cast<std::size_t>(c)).retry_histogram[b];
}

void Stats::on_policy_delay(CoreId /*c*/, bool intra, Time cycles) {
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
