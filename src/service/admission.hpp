// Bounded-queue admission control for the service harness
// (docs/service.md "Admission control").
//
// A production broker never lets its queue grow without bound: beyond a
// configured depth it either rejects new work (load shedding) or pushes
// back on the producer (backpressure). The gate tracks the *logical* queue
// depth — ops admitted but not yet dequeued — on the host side, so it works
// unchanged over every queue implementation.
//
// The gate is plain (non-atomic) state: the simulator runs all coroutines
// on one host thread in deterministic event order, which is also what
// makes the admission decision itself deterministic.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/types.hpp"

namespace sbq::service {

enum class AdmissionPolicy {
  kDrop,          // over the limit: reject the op, count it, move on
  kBackpressure,  // over the limit: the producer waits for room
};

inline const char* admission_policy_name(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kDrop: return "drop";
    case AdmissionPolicy::kBackpressure: return "backpressure";
  }
  throw std::logic_error("bad AdmissionPolicy");
}

struct AdmissionConfig {
  std::uint64_t depth_limit = 64;  // 0 = unbounded (gate always admits)
  AdmissionPolicy policy = AdmissionPolicy::kDrop;
  // kBackpressure: cycles a blocked producer waits between depth re-checks.
  sim::Time backpressure_poll = 32;
};

// Counter identity (checked by tests/service_test.cpp): at quiescence
//   offered == accepted + rejected        (every op is decided exactly once)
//   depth() == accepted - released == 0   (everything admitted was drained)
// Under kBackpressure rejected stays 0; the cost shows up in
// backpressure_waits / backpressure_cycles instead.
class AdmissionGate {
 public:
  explicit AdmissionGate(const AdmissionConfig& cfg) : cfg_(cfg) {}

  const AdmissionConfig& config() const noexcept { return cfg_; }

  bool has_room() const noexcept {
    return cfg_.depth_limit == 0 || depth_ < cfg_.depth_limit;
  }
  std::uint64_t depth() const noexcept { return depth_; }

  // Producer side: every arrival calls exactly one of accept()/reject()
  // (both count the op as offered).
  void accept() noexcept {
    ++offered_;
    ++accepted_;
    ++depth_;
  }
  void reject() noexcept {
    ++offered_;
    ++rejected_;
  }
  // A producer that found the gate closed under kBackpressure reports the
  // stall (once per blocked op) and how long it ended up waiting.
  void note_backpressure(sim::Time waited_cycles) noexcept {
    ++backpressure_waits_;
    backpressure_cycles_ += waited_cycles;
  }

  // Consumer side: one admitted op left the queue.
  void release() noexcept {
    --depth_;
    ++released_;
  }

  std::uint64_t offered() const noexcept { return offered_; }
  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t released() const noexcept { return released_; }
  std::uint64_t backpressure_waits() const noexcept {
    return backpressure_waits_;
  }
  std::uint64_t backpressure_cycles() const noexcept {
    return backpressure_cycles_;
  }

 private:
  AdmissionConfig cfg_;
  std::uint64_t depth_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t backpressure_waits_ = 0;
  std::uint64_t backpressure_cycles_ = 0;
};

}  // namespace sbq::service
