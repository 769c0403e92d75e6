#include "htm/htm.hpp"

// The Unsupported backend is all inline (htm.hpp); this file compiles the
// RTM backend, which needs an x86 toolchain with -mrtm.
#if defined(SBQ_HAVE_RTM)

#include <cpuid.h>
#include <immintrin.h>

namespace sbq::htm {

namespace {

bool cpuid_reports_rtm() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kRtmBit = 1u << 11;  // CPUID.07H.EBX.RTM
  return (ebx & kRtmBit) != 0;
}

}  // namespace

bool hardware_available() noexcept {
  static const bool available = cpuid_reports_rtm();
  return available;
}

unsigned begin() noexcept { return _xbegin(); }

void end() noexcept { _xend(); }

void abort_with(std::uint8_t code) noexcept {
  // _xabort requires an immediate; dispatch over the codes we use.
  switch (code) {
    case 1: _xabort(1); break;
    default: _xabort(0xff); break;
  }
  __builtin_unreachable();
}

bool in_transaction() noexcept { return _xtest() != 0; }

}  // namespace sbq::htm

#endif
