// JSON encoding of a sim::MetricsSnapshot — the "counters" block every
// per-cell record in a BENCH_*.json artifact carries (docs/observability.md
// documents each field). The protocol, basket and faults keys are the
// counter structs' field names (sim/stats.hpp). Header-only so
// that non-sim binaries linking sbq_benchsupport do not pull in the
// simulator.
#pragma once

#include "benchsupport/json.hpp"
#include "sim/stats.hpp"

namespace sbq {

// Sets one key per field of `counters`, in its field list's order
// (sim/types.hpp "Field lists"); every listed field is a u64 counter.
template <class Counters>
void set_fields(Json& obj, const Counters& counters) {
  struct Setter {
    Json& obj;
    void operator()(const char* name, std::uint64_t v) {
      obj.set(name, Json(v));
    }
  } setter{obj};
  sim::visit_fields(counters, setter);
}

inline Json metrics_to_json(const sim::MetricsSnapshot& m) {
  Json protocol = Json::object();
  set_fields(protocol, m.protocol);

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
  // Not the field list: the JSON puts aborts after commits.
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
  set_fields(basket, m.basket);
  // With no closes the minimum is still UINT64_MAX; report 0.
  if (m.basket.closes == 0) basket.set("occupancy_min", Json(std::uint64_t{0}));

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
    set_fields(faults, m.faults);
    out.set("faults", std::move(faults));
  }
  return out;
}

}  // namespace sbq
