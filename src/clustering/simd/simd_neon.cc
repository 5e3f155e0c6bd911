// NEON path (aarch64): the 16-lane block is eight 2-wide float64x2_t
// registers (register q holds lanes 2q, 2q+1), giving eight independent
// vector add chains. Each lane still accumulates the same elements in the
// same order as the scalar reference and AVX2, and the final fold in
// FoldLanes is shared, so the bits match. NEON is baseline on aarch64 — no
// runtime cpuid gate needed, just the compile-time guard. vmulq_f64 +
// vaddq_f64 are kept unfused for the same reason as AVX2.
#include "clustering/simd/simd_lanes.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace uclust::clustering::simd {

namespace {

// One 2-wide register; LaneBlock<NeonReg> is the 16-lane block as eight
// independent add chains.
struct NeonReg {
  static constexpr std::size_t kWidth = 2;
  using V = float64x2_t;
  static V Zero() { return vdupq_n_f64(0.0); }
  static V Splat(double x) { return vdupq_n_f64(x); }
  static V Load(const double* p) { return vld1q_f64(p); }
  static V Sub(V a, V b) { return vsubq_f64(a, b); }
  static V Mul(V a, V b) { return vmulq_f64(a, b); }
  static V Add(V a, V b) { return vaddq_f64(a, b); }
  static void Store(double* p, V a) { vst1q_f64(p, a); }
};

const KernelTable kTable = MakeTable<NeonReg>();

}  // namespace

const KernelTable* NeonTable() { return &kTable; }

}  // namespace uclust::clustering::simd

#else  // !defined(__aarch64__)

namespace uclust::clustering::simd {

const KernelTable* NeonTable() { return nullptr; }

}  // namespace uclust::clustering::simd

#endif
