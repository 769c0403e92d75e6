// Bounded-queue admission control for the service harness
// (docs/service.md "Admission control").
//
// A production broker never lets its queue grow without bound: beyond a
// configured depth it rejects new work (load shedding). The gate tracks
// the *logical* queue depth — ops admitted but not yet dequeued — on the
// host side, so it works unchanged over every queue implementation.
//
// The gate is plain (non-atomic) state: the simulator runs all coroutines
// on one host thread in deterministic event order, which is also what
// makes the admission decision itself deterministic.
#pragma once

#include <cstdint>

namespace sbq::service {

// Over the limit the op is rejected, counted and skipped. The enum keeps
// its one enumerator because benchmark/sbq_bench.cpp assigns
// AdmissionPolicy::kDrop to AdmissionConfig::policy.
enum class AdmissionPolicy { kDrop };

struct AdmissionConfig {
  std::uint64_t depth_limit = 64;  // 0 = unbounded (gate always admits)
  AdmissionPolicy policy = AdmissionPolicy::kDrop;
};

// Counter identity (checked by tests/service_test.cpp): at quiescence
//   offered == accepted + rejected        (every op is decided exactly once)
//   depth() == accepted - released == 0   (everything admitted was drained)
class AdmissionGate {
 public:
  explicit AdmissionGate(const AdmissionConfig& cfg) : cfg_(cfg) {}

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

  // Consumer side: one admitted op left the queue.
  void release() noexcept {
    --depth_;
    ++released_;
  }

  std::uint64_t offered() const noexcept { return offered_; }
  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t released() const noexcept { return released_; }

 private:
  AdmissionConfig cfg_;
  std::uint64_t depth_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t released_ = 0;
};

}  // namespace sbq::service
