// Shared lane-blocked kernel bodies, templated over a per-ISA register
// type `R`.
//
// Every ISA TU supplies only its hardware register (R: kWidth doubles plus
// Zero/Splat/Load/Sub/Mul/Add/Store) and instantiates the SAME templates
// below, so the accumulation order — and therefore the rounding — is
// identical by construction: the bit-exactness contract is structural, not
// something each path re-implements and can drift on. LaneBlock<R> packs
// kLanes / R::kWidth registers into one block of exactly kLanes = 16
// doubles (AVX2 four 4-wide registers, NEON eight 2-wide registers, scalar
// sixteen OneLane doubles).
//
// Shape of every reduction:
//   1. vector body over the full groups [0, m - m % 16),
//   2. spill the vector accumulator to double lanes[16],
//   3. scalar tail: element full + t accumulates into lanes[t],
//   4. fixed fold tree (FoldLanes below).
// Steps 2–4 are plain scalar code shared verbatim across ISAs; step 1 is
// where the vector speedup lives and is rounding-equivalent to sixteen
// independent scalar accumulators as long as R never fuses mul+add
// (see the -ffp-contract=off note in simd.h).
//
// The center sweep (CenterSqDistancesT) needs no fold at all: its lanes
// run across centers, so each output is one lane's sequential sum whatever
// the block width.
#ifndef UCLUST_CLUSTERING_SIMD_SIMD_LANES_H_
#define UCLUST_CLUSTERING_SIMD_SIMD_LANES_H_

#include <algorithm>
#include <cstddef>
#include <limits>

#include "clustering/simd/simd.h"

namespace uclust::clustering::simd {

// Everything here has internal linkage: each ISA TU is compiled with its own
// flags (-mavx2, no auto-vectorization, ...), so a shared instantiation such
// as CenterBlocksT<OneLane> must not be merged across TUs by the linker — the
// scalar table could otherwise run a copy built for AVX2.
namespace {

// The one-double "register": the scalar TU's R and every path's last-center
// tail in the center sweep.
struct OneLane {
  static constexpr std::size_t kWidth = 1;
  using V = double;
  static V Zero() { return 0.0; }
  static V Splat(double x) { return x; }
  static V Load(const double* p) { return *p; }
  static V Sub(V a, V b) { return a - b; }
  static V Mul(V a, V b) { return a * b; }
  static V Add(V a, V b) { return a + b; }
  static void Store(double* p, V a) { *p = a; }
};

// kLanes doubles as kRegs independent registers of R (register q holds
// lanes q * R::kWidth .. (q + 1) * R::kWidth - 1).
template <class R>
struct LaneBlock {
  static_assert(kLanes % R::kWidth == 0);
  static constexpr std::size_t kWidth = kLanes;
  static constexpr std::size_t kRegs = kLanes / R::kWidth;
  struct V {
    typename R::V r[kRegs];
  };
  static V Zero() {
    V v;
    for (std::size_t q = 0; q < kRegs; ++q) v.r[q] = R::Zero();
    return v;
  }
  static V Splat(double x) {
    V v;
    for (std::size_t q = 0; q < kRegs; ++q) v.r[q] = R::Splat(x);
    return v;
  }
  static V Load(const double* p) {
    V v;
    for (std::size_t q = 0; q < kRegs; ++q) v.r[q] = R::Load(p + q * R::kWidth);
    return v;
  }
  static V Sub(const V& a, const V& b) {
    V v;
    for (std::size_t q = 0; q < kRegs; ++q) v.r[q] = R::Sub(a.r[q], b.r[q]);
    return v;
  }
  static V Mul(const V& a, const V& b) {
    V v;
    for (std::size_t q = 0; q < kRegs; ++q) v.r[q] = R::Mul(a.r[q], b.r[q]);
    return v;
  }
  static V Add(const V& a, const V& b) {
    V v;
    for (std::size_t q = 0; q < kRegs; ++q) v.r[q] = R::Add(a.r[q], b.r[q]);
    return v;
  }
  static void Store(double* p, const V& a) {
    for (std::size_t q = 0; q < kRegs; ++q) R::Store(p + q * R::kWidth, a.r[q]);
  }
};

// The fixed fold tree of the lane block: halve lane-wise (lane j absorbs
// lane j + width/2) down to 4 survivors, then (t0 + t2) + (t1 + t3). The
// halving steps are exactly the pairwise register adds the vector paths
// perform before their one horizontal fold, so the tree is the same
// additions in the same order on every ISA. Written fully unrolled: the
// loop form made GCC materialize the intermediate array on the stack,
// which for short rows cost as much as the reduction body itself.
inline double FoldLanes(const double lanes[kLanes]) {
  // width 16 -> 8
  const double a0 = lanes[0] + lanes[8];
  const double a1 = lanes[1] + lanes[9];
  const double a2 = lanes[2] + lanes[10];
  const double a3 = lanes[3] + lanes[11];
  const double a4 = lanes[4] + lanes[12];
  const double a5 = lanes[5] + lanes[13];
  const double a6 = lanes[6] + lanes[14];
  const double a7 = lanes[7] + lanes[15];
  // width 8 -> 4
  const double b0 = a0 + a4;
  const double b1 = a1 + a5;
  const double b2 = a2 + a6;
  const double b3 = a3 + a7;
  return (b0 + b2) + (b1 + b3);
}

template <class Ops>
double SquaredDistanceT(const double* a, const double* b, std::size_t m) {
  // Deliberately uninitialized: the full-group path overwrites every lane
  // via Ops::Store; only the all-tail path (m < kLanes) zero-fills. A
  // blanket `= {}` would put a kLanes-wide memset on every call, which for
  // hot mid-size m costs as much as the reduction itself.
  double lanes[kLanes];
  const std::size_t full = m - (m % kLanes);
  if (full > 0) {
    typename Ops::V acc = Ops::Zero();
    for (std::size_t j = 0; j < full; j += kLanes) {
      const typename Ops::V d = Ops::Sub(Ops::Load(a + j), Ops::Load(b + j));
      acc = Ops::Add(acc, Ops::Mul(d, d));
    }
    Ops::Store(lanes, acc);
  } else {
    for (std::size_t t = 0; t < kLanes; ++t) lanes[t] = 0.0;
  }
  for (std::size_t t = 0; full + t < m; ++t) {
    const double d = a[full + t] - b[full + t];
    lanes[t] += d * d;
  }
  return FoldLanes(lanes);
}

template <class Ops>
double SumT(const double* v, std::size_t n) {
  double lanes[kLanes];
  const std::size_t full = n - (n % kLanes);
  if (full > 0) {
    typename Ops::V acc = Ops::Zero();
    for (std::size_t j = 0; j < full; j += kLanes) {
      acc = Ops::Add(acc, Ops::Load(v + j));
    }
    Ops::Store(lanes, acc);
  } else {
    for (std::size_t t = 0; t < kLanes; ++t) lanes[t] = 0.0;
  }
  for (std::size_t t = 0; full + t < n; ++t) {
    lanes[t] += v[full + t];
  }
  return FoldLanes(lanes);
}

template <class Ops>
double Ed2T(const double* mean_lo, const double* mean_hi, std::size_t m,
            double tv_lo, double tv_hi) {
  return (SquaredDistanceT<Ops>(mean_lo, mean_hi, m) + tv_lo) + tv_hi;
}

template <class Ops>
void VectorAddT(double* dst, const double* src, std::size_t n) {
  const std::size_t full = n - (n % kLanes);
  for (std::size_t j = 0; j < full; j += kLanes) {
    Ops::Store(dst + j, Ops::Add(Ops::Load(dst + j), Ops::Load(src + j)));
  }
  for (std::size_t j = full; j < n; ++j) {
    dst[j] += src[j];
  }
}

template <class Ops>
void PackRowT(const double* mean, const double* mu2, const double* var,
              std::size_t m, double* mean_dst, double* mu2_dst,
              double* var_dst, double* total_var_dst) {
  std::copy(mean, mean + m, mean_dst);
  std::copy(mu2, mu2 + m, mu2_dst);
  std::copy(var, var + m, var_dst);
  *total_var_dst = SumT<Ops>(var, m);
}

// The CK-means reduced-moment scan: best and runner-up centers of one point
// over a flat k x m centroid array. Mirrors the historical ScanCenters /
// NearestCentroid decision sequence exactly — ascending c, strict <, ties
// to the lower index — so routing through it changes no assignment and no
// Hamerly/Elkan bound.
template <class Ops>
void NearestTwoT(const double* point, const double* centroids, int k,
                 std::size_t m, int reuse_c, double reuse_d2, int* best,
                 double* best_d2, double* second_d2) {
  int b = 0;
  double bd = std::numeric_limits<double>::infinity();
  double sd = std::numeric_limits<double>::infinity();
  for (int c = 0; c < k; ++c) {
    const double d =
        c == reuse_c
            ? reuse_d2
            : SquaredDistanceT<Ops>(
                  point, centroids + static_cast<std::size_t>(c) * m, m);
    if (d < bd) {
      sd = bd;
      bd = d;
      b = c;
    } else if (d < sd) {
      sd = d;
    }
  }
  *best = b;
  *best_d2 = bd;
  *second_d2 = sd;  // inf when k == 1, matching the historical scan
}

// Blocks of Ops::kWidth consecutive centers from center c on, while a whole
// block fits; returns the first center left over. Lane l of a block owns
// center c + l and accumulates (point[j] - centers_cm[j * k + c + l])^2 in
// ascending j — the same additions in the same order for any block width.
template <class Ops>
std::size_t CenterBlocksT(const double* point, const double* centers_cm,
                          std::size_t k, std::size_t m, std::size_t c,
                          double* out) {
  for (; c + Ops::kWidth <= k; c += Ops::kWidth) {
    typename Ops::V acc = Ops::Zero();
    for (std::size_t j = 0; j < m; ++j) {
      const typename Ops::V d =
          Ops::Sub(Ops::Splat(point[j]), Ops::Load(centers_cm + j * k + c));
      acc = Ops::Add(acc, Ops::Mul(d, d));
    }
    Ops::Store(out + c, acc);
  }
  return c;
}

// The relocation local search's center sweep: 16-center blocks, then single
// registers, then single centers.
template <class R>
void CenterSqDistancesT(const double* point, const double* centers_cm, int k,
                        std::size_t m, double* out) {
  const std::size_t kk = static_cast<std::size_t>(k);
  std::size_t c =
      CenterBlocksT<LaneBlock<R>>(point, centers_cm, kk, m, 0, out);
  c = CenterBlocksT<R>(point, centers_cm, kk, m, c, out);
  CenterBlocksT<OneLane>(point, centers_cm, kk, m, c, out);
}

template <class R>
constexpr KernelTable MakeTable() {
  using Ops = LaneBlock<R>;
  return KernelTable{
      &SquaredDistanceT<Ops>, &SumT<Ops>,     &Ed2T<Ops>,
      &VectorAddT<Ops>,       &PackRowT<Ops>, &NearestTwoT<Ops>,
      &CenterSqDistancesT<R>,
  };
}

}  // namespace

}  // namespace uclust::clustering::simd

#endif  // UCLUST_CLUSTERING_SIMD_SIMD_LANES_H_
