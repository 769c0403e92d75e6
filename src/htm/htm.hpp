// Portable hardware-transactional-memory facade.
//
// When compiled with SBQ_ENABLE_RTM (and -mrtm) on a TSX-capable Intel part,
// begin/end/abort map to the RTM intrinsics. Everywhere else the backend is
// `Unsupported`: begin() always reports a non-conflict abort, which makes
// every algorithm built on the facade (TxCAS in particular) fall through to
// its plain-CAS fallback path. This keeps the *native* library correct on
// any host; the paper's HTM *performance* behaviour is reproduced on the
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

// True if the binary carries a real RTM backend *and* the CPU reports RTM.
bool hardware_available() noexcept;

#if defined(SBQ_HAVE_RTM)

unsigned begin() noexcept;                 // returns kStarted or an abort status
void end() noexcept;                       // commit
[[noreturn]] void abort_with(std::uint8_t code) noexcept;
bool in_transaction() noexcept;

#else

// Unsupported backend: every begin() is an immediate non-conflict,
// non-retryable abort. Callers still run their own retry loop: native TxCAS
// makes all max_attempts attempts (the native non-conflict budget is 0, see
// common/contention.hpp), tens of ns that reach no §4.1 delay, and then
// takes its plain-CAS fallback.
inline unsigned begin() noexcept { return 0u; }
inline void end() noexcept {}
inline void abort_with(std::uint8_t) noexcept {}
inline bool in_transaction() noexcept { return false; }

#endif

}  // namespace sbq::htm
