// Scalar reference path: the lane-blocked templates instantiated with the
// one-double register, so a lane block is sixteen plain accumulators. This
// TU is the ground truth the vector paths are checked against, and the
// forced-scalar bench baseline — so the build disables auto-vectorization
// for it (see CMakeLists.txt), keeping the baseline honestly scalar instead
// of silently SSE2.
#include "clustering/simd/simd_lanes.h"

namespace uclust::clustering::simd {

namespace {

constexpr KernelTable kTable = MakeTable<OneLane>();

}  // namespace

const KernelTable* ScalarTable() { return &kTable; }

}  // namespace uclust::clustering::simd
