// JSON encoding of a sim::MetricsSnapshot — the "counters" block every
// per-cell record in a BENCH_*.json artifact carries (docs/observability.md
// documents each field). Header-only so that non-sim binaries linking
// sbq_benchsupport do not pull in the simulator.
#pragma once

#include "benchsupport/json.hpp"
#include "common/contention.hpp"
#include "sim/stats.hpp"

namespace sbq {

inline Json metrics_to_json(const sim::MetricsSnapshot& m) {
  Json protocol = Json::object();
  protocol.set("gets", Json(m.protocol.gets));
  protocol.set("getm", Json(m.protocol.getm));
  protocol.set("fwd_gets", Json(m.protocol.fwd_gets));
  protocol.set("fwd_getm", Json(m.protocol.fwd_getm));
  protocol.set("inv", Json(m.protocol.inv));
  protocol.set("inv_ack", Json(m.protocol.inv_ack));
  protocol.set("wb_data", Json(m.protocol.wb_data));

  // The base §3 abort taxonomy is always serialized; the injected causes
  // (interrupt, spurious) and the fault block only appear when the machine
  // ran with fault injection enabled, so default artifacts — and the
  // goldens diffed against them — stay byte-identical.
  Json aborts = Json::object();
  const int cause_count =
      m.fault_injection ? sim::kAbortCauseCount : sim::kBaseAbortCauseCount;
  for (int c = 0; c < cause_count; ++c) {
    aborts.set(sim::abort_cause_name(static_cast<sim::AbortCause>(c)),
               Json(m.htm.aborts[static_cast<std::size_t>(c)]));
  }
  Json retry = Json::array();
  for (std::uint64_t b : m.htm.retry_histogram) retry.push_back(Json(b));
  Json htm = Json::object();
  htm.set("calls", Json(m.htm.calls));
  htm.set("attempts", Json(m.htm.attempts));
  htm.set("commits", Json(m.htm.commits));
  htm.set("aborts", std::move(aborts));
  htm.set("fallbacks", Json(m.htm.fallbacks));
  if (m.fault_injection) {
    htm.set("fallback_cas", Json(m.htm.fallback_cas));
  }
  htm.set("uarch_fix_stalls", Json(m.htm.uarch_fix_stalls));
  htm.set("retry_histogram", std::move(retry));

  Json basket = Json::object();
  basket.set("appends_won", Json(m.basket.appends_won));
  basket.set("appends_lost", Json(m.basket.appends_lost));
  basket.set("stale_tails", Json(m.basket.stale_tails));
  basket.set("closes", Json(m.basket.closes));
  basket.set("occupancy_sum", Json(m.basket.occupancy_sum));
  basket.set("occupancy_min",
             Json(m.basket.closes == 0 ? 0 : m.basket.occupancy_min));
  basket.set("occupancy_max", Json(m.basket.occupancy_max));
  basket.set("extracted", Json(m.basket.extracted));
  basket.set("empty_swaps", Json(m.basket.empty_swaps));
  basket.set("node_reuses", Json(m.basket.node_reuses));
  basket.set("fresh_allocs", Json(m.basket.fresh_allocs));

  Json out = Json::object();
  out.set("protocol", std::move(protocol));
  out.set("htm", std::move(htm));
  out.set("basket", std::move(basket));
  out.set("messages", Json(m.messages));
  out.set("link_messages", Json(m.link_messages));
  out.set("link_wait_cycles", Json(m.link_wait_cycles));
  out.set("events", Json(m.events));
  out.set("final_time", Json(static_cast<std::uint64_t>(m.final_time)));
  if (m.fault_injection) {
    Json faults = Json::object();
    faults.set("injected_capacity", Json(m.faults.injected_capacity));
    faults.set("injected_interrupt", Json(m.faults.injected_interrupt));
    faults.set("injected_spurious", Json(m.faults.injected_spurious));
    faults.set("one_shots_fired", Json(m.faults.one_shots_fired));
    faults.set("jittered_messages", Json(m.faults.jittered_messages));
    faults.set("jitter_cycles", Json(m.faults.jitter_cycles));
    out.set("faults", std::move(faults));
  }
  // Contention-policy block: gated on a non-fixed policy kind (like the
  // fault block), so default fixed-policy artifacts stay byte-identical.
  // Under a non-fixed policy, fallback_cas is carried here even without
  // fault injection, so json_validate can check degraded_fallbacks ==
  // fallback_cas from the block alone.
  if (m.cas_policy_kind != 0) {
    Json policy = Json::object();
    policy.set("kind", Json(contention_policy_name(static_cast<
                                ContentionPolicyKind>(m.cas_policy_kind))));
    policy.set("txn_steps", Json(m.policy.txn_steps));
    policy.set("budget_fallbacks", Json(m.policy.budget_fallbacks));
    policy.set("degraded_fallbacks", Json(m.policy.degraded_fallbacks));
    policy.set("intra_delay_cycles", Json(m.policy.intra_delay_cycles));
    policy.set("post_delay_cycles", Json(m.policy.post_delay_cycles));
    policy.set("fallback_cas", Json(m.htm.fallback_cas));
    out.set("cas_policy", std::move(policy));
  }
  return out;
}

}  // namespace sbq
