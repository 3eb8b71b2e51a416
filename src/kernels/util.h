// Small host-side helpers to move packed complex arrays in and out of the
// simulated L1 (setup/verification only; no simulated cycles).
#ifndef PUSCHPOOL_KERNELS_UTIL_H
#define PUSCHPOOL_KERNELS_UTIL_H

#include <span>
#include <vector>

#include "common/complex16.h"
#include "sim/machine.h"
#include "sim/memory.h"

namespace pp::kernels {

// Fixed-point helper routines are implemented in software on Snitch (no
// 16-bit divide/sqrt hardware): they cost instructions, not unit stalls.

// Q15 square root: 12-instruction shift-add routine.
inline uint64_t soft_sqrt(sim::Core& c, uint64_t dep,
                          std::source_location sl =
                              std::source_location::current()) {
  return c.op(12, dep, 0, c.cfg->mul_latency, sl);
}

// Q15 complex-by-real-scalar division (both components share the
// normalization): 16-instruction routine.
inline uint64_t soft_div_cr(sim::Core& c, uint64_t dep_num, uint64_t dep_den,
                            std::source_location sl =
                                std::source_location::current()) {
  return c.op(16, dep_num, dep_den, c.cfg->mul_latency, sl);
}

inline void poke_c(sim::Memory& mem, arch::addr_t base,
                   std::span<const common::cq15> v) {
  for (size_t i = 0; i < v.size(); ++i) {
    mem.poke(base + static_cast<arch::addr_t>(i), common::pack_cq15(v[i]));
  }
}

inline std::vector<common::cq15> peek_c(const sim::Memory& mem,
                                        arch::addr_t base, size_t n) {
  std::vector<common::cq15> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = common::unpack_cq15(mem.peek(base + static_cast<arch::addr_t>(i)));
  }
  return v;
}

}  // namespace pp::kernels

#endif  // PUSCHPOOL_KERNELS_UTIL_H
