// Portable hardware-transactional-memory facade.
//
// When compiled with SBQ_ENABLE_RTM (and -mrtm), begin/end/abort map to the
// RTM intrinsics and hardware_available() asks CPUID whether the part has
// RTM. Everywhere else the backend is `Unsupported`: hardware_available() is
// constexpr false and begin() always reports a non-conflict abort. Callers
// check hardware_available() first, so native TxCAS goes straight to its
// plain-CAS fallback on any host without RTM (and its transactional loop is
// dead code in the default build). This keeps the *native* library correct
// on any host; the paper's HTM *performance* behaviour is reproduced on the
// coherence simulator (src/sim), not here.
//
// The status word mirrors Intel RTM's EAX abort-reason bits so that code
// written against this facade matches Algorithm 1's structure (conflict /
// nested / explicit abort tests).
#pragma once

#include <cstdint>

namespace sbq::htm {

// Abort-status bits, matching Intel RTM's layout.
enum Status : unsigned {
  kStarted = ~0u,          // sentinel: transaction started successfully
  kAbortExplicit = 1u << 0,  // _xabort was called; code in bits 24..31
  kAbortRetry = 1u << 1,     // transient; retry may succeed
  kAbortConflict = 1u << 2,  // memory conflict with another core
  kAbortCapacity = 1u << 3,  // read/write set overflowed
  kAbortDebug = 1u << 4,
  kAbortNested = 1u << 5,    // abort occurred inside a nested transaction
};

constexpr bool started(unsigned status) noexcept { return status == kStarted; }
constexpr bool is_conflict(unsigned status) noexcept { return (status & kAbortConflict) != 0; }
constexpr bool is_nested(unsigned status) noexcept { return (status & kAbortNested) != 0; }
constexpr bool is_explicit(unsigned status) noexcept { return (status & kAbortExplicit) != 0; }
constexpr unsigned explicit_code(unsigned status) noexcept { return (status >> 24) & 0xffu; }

#if defined(SBQ_HAVE_RTM)

// True if the CPU reports RTM (checked once). Call begin() only when it is.
bool hardware_available() noexcept;
unsigned begin() noexcept;                 // returns kStarted or an abort status
void end() noexcept;                       // commit
[[noreturn]] void abort_with(std::uint8_t code) noexcept;
bool in_transaction() noexcept;

#else

// Unsupported backend: no transaction can ever start, and every begin() is
// an immediate non-conflict, non-retryable abort.
inline constexpr bool hardware_available() noexcept { return false; }
inline unsigned begin() noexcept { return 0u; }
inline void end() noexcept {}
inline void abort_with(std::uint8_t) noexcept {}
inline bool in_transaction() noexcept { return false; }

#endif

}  // namespace sbq::htm
