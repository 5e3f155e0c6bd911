// AVX2 path: the 16-lane block is four 4-wide __m256d registers, giving
// the reduction four independent vector add chains (the scalar reference
// runs the same sixteen lanes as scalar chains). Only this TU is compiled
// with -mavx2 (when the compiler supports it); the guard below turns the
// factory into a nullptr stub otherwise, and runtime dispatch additionally
// gates on cpuid so the path never executes on hardware without AVX2. No
// fused multiply-add anywhere: _mm256_mul_pd followed by _mm256_add_pd
// rounds twice, exactly like the scalar reference.
#include "clustering/simd/simd_lanes.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace uclust::clustering::simd {

namespace {

// One 4-wide register; LaneBlock<Avx2Reg> is the 16-lane block as four
// independent add chains.
struct Avx2Reg {
  static constexpr std::size_t kWidth = 4;
  using V = __m256d;
  static V Zero() { return _mm256_setzero_pd(); }
  static V Splat(double x) { return _mm256_set1_pd(x); }
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static void Store(double* p, V a) { _mm256_storeu_pd(p, a); }
};

const KernelTable kTable = MakeTable<Avx2Reg>();

}  // namespace

const KernelTable* Avx2Table() { return &kTable; }

}  // namespace uclust::clustering::simd

#else  // !defined(__AVX2__)

namespace uclust::clustering::simd {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace uclust::clustering::simd

#endif
